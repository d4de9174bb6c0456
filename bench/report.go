package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// reportPass runs one cold telcoreport over dir in a fresh process and
// returns the SHA-256 of the report it wrote.
func reportPass(e *env, dir, outFile string, extra ...string) (digest string, ps *os.ProcessState, wall time.Duration, err error) {
	args := append([]string{"-data", dir, "-out", outFile}, extra...)
	cmd := exec.CommandContext(e.ctx, e.bin("telcoreport"), args...)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	wall = time.Since(start)
	if err != nil {
		return "", nil, wall, fmt.Errorf("telcoreport: %v\n%s", err, out)
	}
	f, err := os.Open(outFile)
	if err != nil {
		return "", nil, wall, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", nil, wall, err
	}
	return hex.EncodeToString(h.Sum(nil)), cmd.ProcessState, wall, nil
}

type reportState struct {
	c         *campaign
	refDigest string
}

// runReportCold is the paper's own use: regenerate the whole evaluation.
// Closed loop, one client: telcoreport -data C in a fresh process, all 30
// artifacts, back to back (OS page cache warm, analyzer cold).
func runReportCold(e *env) (*outcome, error) {
	var refWalls []float64
	st, setupS, err := timeSetups(e, func() (*reportState, error) {
		c, err := e.freshCampaign()
		if err != nil {
			return nil, err
		}
		// The single-core pass is both the reference every timed pass must
		// reproduce byte for byte and the one-core baseline of the job.
		digest, _, wall, err := reportPass(e, c.dir, filepath.Join(e.tmp, "reference.txt"), "-parallel", "1")
		if err != nil {
			return nil, err
		}
		refWalls = append(refWalls, float64(wall)/float64(time.Millisecond))
		return &reportState{c: c, refDigest: digest}, nil
	}, func(s *reportState) { os.RemoveAll(s.c.dir) })
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	var walls, cpus, rss []float64
	outFile := filepath.Join(e.tmp, "report.txt")
	deadline := time.Now().Add(e.legSeconds(1))
	for time.Now().Before(deadline) && e.ctx.Err() == nil {
		o.attempted++
		digest, ps, wall, err := reportPass(e, st.c.dir, outFile)
		switch {
		case err != nil:
			o.fail(1, "pass %d: %v", o.attempted, err)
			continue
		case digest != st.refDigest:
			o.fail(1, "pass %d: report digest %s differs from the -parallel 1 reference %s", o.attempted, digest, st.refDigest)
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		cpus = append(cpus, float64(cpuOf(ps))/float64(time.Millisecond))
		rss = append(rss, maxRSSMB(ps))
	}
	if len(walls) == 0 {
		return o, fmt.Errorf("report.cold: no pass completed")
	}
	stored, err := storedBytes(st.c.dir)
	if err != nil {
		return o, err
	}
	tail := tails["report.cold"]
	o.set("setup_s", setupS, "s")
	o.set("op_p50_ms", median(walls), "ms")
	o.set("op_tail_ms", windowedTail(walls, tail.windows, tail.pct), "ms")
	o.set("second_p50_ms", median(refWalls), "ms")
	o.set("cpu_ms_per_op", median(cpus), "ms")
	o.set("rss_mb", median(rss), "MB")
	o.note("peak_rss_mb", slices.Max(rss), "MB")
	o.set("stored_bytes_per_record", float64(stored)/float64(st.c.records), "B")
	o.timing("report_pass", walls)
	o.note("records", float64(st.c.records), "count")
	o.note("records_per_s", float64(st.c.records)/(median(walls)/1000), "1/s")
	return o, nil
}
