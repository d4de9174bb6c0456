package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one telcoserve child on an ephemeral loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	spawned time.Time
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port. telcoserve takes
// its address as a flag and does not report a port it picked itself, so
// the listener is closed again before the child binds it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns telcoserve with every knob at its default (codec v2,
// -wal-sync off: the WAL is written but not fsynced per batch; seals and
// manifests are always fsynced). The child dies with this process.
func startDaemon(bin, dataDir, logPath string, ingest bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-data", dataDir, "-addr", addr}
	if ingest {
		args = append(args, "-ingest")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, spawned: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// stop terminates the child (SIGTERM, then SIGKILL after its drain
// budget), waits for it, and returns its peak RSS in MB.
func (d *daemon) stop() float64 {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	return maxRSSMB(d.cmd.ProcessState)
}

func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return 0
}

func cpuOf(ps *os.ProcessState) time.Duration { return ps.UserTime() + ps.SystemTime() }

// cpu reads the live child's consumed CPU time (user + system) from
// /proc, so a timed leg can be charged only what it used.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in 100 Hz clock ticks.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat line %q", data)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// rssMB reads the live child's resident set size from /proc.
func (d *daemon) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc statm line %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// sampleRSS samples the child's RSS every 100 ms until the returned stop
// is called; stop returns the samples.
func (d *daemon) sampleRSS() (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if mb, err := d.rssMB(); err == nil {
					samples = append(samples, mb)
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// logTail returns the end of the child's log, for failure reports.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// health is the part of GET /healthz the generator reads.
type health struct {
	Status string `json:"status"`
	Days   int    `json:"days"`
	Ingest *struct {
		MemtableRecords int64 `json:"memtable_records"`
	} `json:"ingest"`
}

func getHealth(ctx context.Context, hc *http.Client, base string) (*health, error) {
	body, _, err := httpGet(ctx, hc, base+"/healthz")
	if err != nil {
		return nil, err
	}
	h := new(health)
	if err := json.Unmarshal(body, h); err != nil {
		return nil, err
	}
	return h, nil
}

// httpGet fetches url, returning the body and headers of a 200 and an
// error for anything else.
func httpGet(ctx context.Context, hc *http.Client, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, resp.Header, nil
}

// waitHealth polls /healthz until ready accepts the answer, the child
// exits, or the timeout passes. It returns when the accepted probe came
// back, which is what set-up and cold-start timings stop on.
func (d *daemon) waitHealth(ctx context.Context, hc *http.Client, timeout time.Duration, ready func(*health) bool) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("telcoserve exited early: %v\n%s", d.waitErr, d.logTail())
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		h, err := getHealth(ctx, hc, d.base)
		if err == nil && ready(h) {
			return time.Now(), nil
		}
		last = err
		time.Sleep(5 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("telcoserve not ready after %s (last probe error: %v)\n%s", timeout, last, d.logTail())
}
