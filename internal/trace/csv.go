package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ExportCSV writes a day partition as CSV for interoperability with
// external analysis tooling (one row per handover, schema mirroring the
// paper's six captured variables plus the TAC join key).
//
// The csv.Writer buffers rows and swallows write errors until Flush, so
// every return path — including iterator failures partway through —
// flushes and surfaces cw.Error(); otherwise a short write to the
// underlying writer would be silently dropped and the caller would see a
// row count that was never durably written.
func ExportCSV(w io.Writer, it RecordIterator) (int64, error) {
	cw := csv.NewWriter(w)
	// finish flushes buffered rows and folds the writer error into the
	// primary one (the primary error wins; a flush failure only surfaces
	// when nothing else went wrong).
	finish := func(n int64, primary error) (int64, error) {
		cw.Flush()
		if err := cw.Error(); primary == nil && err != nil {
			return n, fmt.Errorf("trace: flushing csv: %w", err)
		}
		return n, primary
	}
	header := []string{
		"timestamp_ms", "ue", "tac", "source_sector", "target_sector",
		"source_rat", "target_rat", "result", "cause", "duration_ms",
	}
	if err := cw.Write(header); err != nil {
		return finish(0, err)
	}
	var cb ColumnBatch
	var rec Record
	var n int64
	for {
		k, err := it.NextColumns(&cb)
		if err != nil {
			return finish(n, err)
		}
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			cb.Record(i, &rec)
			row := []string{
				strconv.FormatInt(rec.Timestamp, 10),
				strconv.FormatUint(uint64(rec.UE), 10),
				strconv.FormatUint(uint64(rec.TAC), 10),
				strconv.FormatUint(uint64(rec.Source), 10),
				strconv.FormatUint(uint64(rec.Target), 10),
				rec.SourceRAT.String(),
				rec.TargetRAT.String(),
				rec.Result.String(),
				strconv.FormatUint(uint64(rec.Cause), 10),
				strconv.FormatFloat(float64(rec.DurationMs), 'f', 1, 32),
			}
			if err := cw.Write(row); err != nil {
				return finish(n, err)
			}
			n++
		}
	}
	return finish(n, nil)
}
