// Package trace defines the handover record schema captured by the
// monitoring probes (the six variables of §3.1: timestamp, result,
// duration, failure cause, anonymized user, source/target sectors with
// their RATs, enriched with the device TAC) and a compact binary codec
// with day-partitioned stores for streaming analysis.
//
// The reader follows the gopacket decoding idiom: records decode into a
// caller-owned struct that is reused across calls, so iterating millions
// of records allocates nothing.
package trace

import (
	"fmt"
	"time"

	"telcolens/internal/causes"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/topology"
)

// Result is the outcome of a handover.
type Result uint8

// Handover outcomes.
const (
	Success Result = iota
	Failure
)

// String returns the result name.
func (r Result) String() string {
	if r == Failure {
		return "failure"
	}
	return "success"
}

// UEID is an anonymized subscriber identifier (the stand-in for the hashed
// IMSI of the paper's pipeline).
type UEID uint32

// Record is one captured handover event.
type Record struct {
	Timestamp  int64 // Unix milliseconds
	UE         UEID
	TAC        devices.TAC // device model via IMEI TAC prefix
	Source     topology.SectorID
	Target     topology.SectorID
	SourceRAT  topology.RAT
	TargetRAT  topology.RAT
	Result     Result
	Cause      causes.Code // CodeNone on success
	DurationMs float32     // signaling time, ms granularity in the paper
}

// HOType classifies the record as horizontal or vertical (§5.2).
func (r *Record) HOType() ho.Type { return ho.Classify(r.TargetRAT) }

// Validate performs cheap sanity checks used by property tests and by the
// reader in strict mode.
func (r *Record) Validate() error {
	if r.Result == Success && r.Cause != causes.CodeNone {
		return fmt.Errorf("trace: successful HO carries cause %d", r.Cause)
	}
	if r.Result == Failure && r.Cause == causes.CodeNone {
		return fmt.Errorf("trace: failed HO without cause")
	}
	if r.DurationMs < 0 {
		return fmt.Errorf("trace: negative duration %g", r.DurationMs)
	}
	if r.SourceRAT > topology.FiveG || r.TargetRAT > topology.FiveG {
		return fmt.Errorf("trace: invalid RAT")
	}
	return nil
}

// StudyStart is the first instant of the measurement window (the paper's
// capture starts 29 Jan 2024, 00:00).
var StudyStart = time.Date(2024, time.January, 29, 0, 0, 0, 0, time.UTC)

// DayStart returns the UTC start of the given study day (0-based).
func DayStart(day int) time.Time { return StudyStart.AddDate(0, 0, day) }

// DayOf returns the 0-based study day of a record timestamp.
func DayOf(tsMillis int64) int {
	return int(time.UnixMilli(tsMillis).UTC().Sub(StudyStart) / (24 * time.Hour))
}
