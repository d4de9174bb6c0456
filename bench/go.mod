module telcolens/bench

go 1.23

require telcolens v0.0.0

replace telcolens => ../
