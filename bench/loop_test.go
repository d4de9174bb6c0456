package main

import (
	"context"
	"testing"
	"time"
)

func TestOpenLoopChargesWaitFromDueTime(t *testing.T) {
	// One connection, ops due every 5 ms, each taking 20 ms: the server is
	// four times too slow. The schedule must not stretch to suit it: op i
	// stays due at i*5 ms, starts late, and its latency counts the wait.
	const (
		n        = 6
		interval = 5 * time.Millisecond
		service  = 20 * time.Millisecond
	)
	start := time.Now()
	res := openLoop(context.Background(), start, n, interval, 1, func(_, i int) bool {
		time.Sleep(service)
		return true
	})
	for i := 0; i < n; i++ {
		// Op i cannot finish before the i+1 ops queued on the connection
		// have been served, and it was due at i*interval.
		floor := time.Duration(i+1)*service - time.Duration(i)*interval
		if res.lat[i] < floor {
			t.Errorf("op %d: latency %v, want at least %v (from its due time)", i, res.lat[i], floor)
		}
		if wantLate := time.Duration(i) * (service - interval); res.late[i] < wantLate {
			t.Errorf("op %d: lateness %v, want at least %v", i, res.late[i], wantLate)
		}
	}
	if res.lat[n-1] <= res.lat[0] {
		t.Errorf("latency did not grow with the backlog: first %v, last %v", res.lat[0], res.lat[n-1])
	}
	if res.failures() != 0 {
		t.Errorf("failures = %d, want 0", res.failures())
	}
}

func TestOpenLoopKeepsScheduleWhenServerIsFast(t *testing.T) {
	const (
		n        = 20
		interval = 2 * time.Millisecond
	)
	var sent []time.Time
	start := time.Now()
	res := openLoop(context.Background(), start, n, interval, 1, func(_, i int) bool {
		sent = append(sent, time.Now())
		return i != 3
	})
	for i, at := range sent {
		if due := start.Add(time.Duration(i) * interval); at.Before(due) {
			t.Errorf("op %d sent %v before it was due", i, due.Sub(at))
		}
	}
	if res.elapsed < time.Duration(n-1)*interval {
		t.Errorf("loop finished in %v, before the last op was due", res.elapsed)
	}
	if res.failures() != 1 || len(res.okLatencies()) != n-1 {
		t.Errorf("failures = %d, ok latencies = %d; want 1 and %d", res.failures(), len(res.okLatencies()), n-1)
	}
}

func TestClosedLoopRunsBackToBack(t *testing.T) {
	res := closedLoop(context.Background(), 50*time.Millisecond, 2, func(_, i int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	if len(res.lat) < 20 || len(res.lat) > 100 {
		t.Errorf("2 clients at 1 ms per op for 50 ms completed %d ops", len(res.lat))
	}
	if len(res.late) != 0 {
		t.Error("a closed loop has no schedule to be late against")
	}
}
