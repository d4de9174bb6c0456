package query

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"telcolens/internal/analysis"
)

// oracleJSON is the reflective rendering AppendJSON replaced: what a
// json.Encoder with SetIndent("", " ") writes for r.
func oracleJSON(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkJSON asserts AppendJSON renders r to the oracle's bytes, or
// fails exactly when the oracle fails, with the same message.
func checkJSON(t *testing.T, r *Result) {
	t.Helper()
	want, werr := oracleJSON(r)
	prefix := []byte("prefix|")
	got, gerr := r.AppendJSON(append([]byte(nil), prefix...))
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("errors differ: AppendJSON %v, json.Encoder %v", gerr, werr)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON clobbered the buffer it appends to: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Encoder\n got: %q\nwant: %q", got, want)
	}
}

func sampleRow() Row {
	return Row{
		Timestamp:  1706486400123,
		UE:         3,
		TAC:        35000001,
		Source:     7,
		Target:     8,
		SourceRAT:  "4G",
		TargetRAT:  "5G",
		Result:     "success",
		DurationMs: 43.25,
	}
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	ok := sampleRow()
	failed := sampleRow()
	failed.Result, failed.Cause, failed.DurationMs = "failure", 17, 0
	agg := analysis.UESliceAggregate{Records: 5, Handovers: 4, Failures: 1, Horizontal: 3, Vertical: 1}
	withPP := agg
	withPP.PingPongs = map[string]int64{"1s": 0, "10s": 3, "5m0s": 4}
	emptyPP := agg
	emptyPP.PingPongs = map[string]int64{}
	met := Metrics{PartitionsConsidered: 56, PartitionsPruned: 55, PartitionsScanned: 1,
		BlocksPruned: 495, BlocksDecoded: 1, BytesRead: 4096, RowsScanned: 128}
	cases := []struct {
		name string
		res  Result
	}{
		{"zero", Result{}},
		{"empty-rows", Result{Gen: 1, Rows: []Row{}}},
		{"one-row", Result{Gen: 2, Rows: []Row{ok}, Metrics: met}},
		{"cause", Result{Gen: 3, Rows: []Row{ok, failed, ok}, Metrics: met}},
		{"truncated", Result{Gen: 4, Rows: []Row{ok, ok}, Truncated: true, Metrics: met}},
		{"truncated-empty", Result{Rows: []Row{}, Truncated: true}},
		{"aggregate", Result{Gen: 5, Rows: []Row{failed}, Aggregate: &agg, Metrics: met}},
		{"aggregate-ping-pongs", Result{Gen: 6, Rows: []Row{ok}, Truncated: true, Aggregate: &withPP, Metrics: met}},
		{"aggregate-empty-ping-pongs", Result{Rows: []Row{}, Aggregate: &emptyPP}},
		{"aggregate-zero", Result{Rows: []Row{}, Aggregate: &analysis.UESliceAggregate{}}},
		{"max-ints", Result{Gen: math.MaxUint64, Rows: []Row{{
			Timestamp: math.MinInt64, UE: math.MaxUint32, TAC: math.MaxUint32,
			Source: math.MaxUint32, Target: math.MaxUint32, Cause: math.MaxUint16,
		}}, Metrics: Metrics{BytesRead: math.MaxInt64, RowsScanned: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkJSON(t, &tc.res) })
	}
}

// TestAppendJSONFloats walks encoding/json's float32 rule: 'f' form,
// 'e' below 1e-6 and from 1e21 up, exponents unpadded; NaN and the
// infinities are errors.
func TestAppendJSONFloats(t *testing.T) {
	floats := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 43.25, 412.7, 1e6, 123456789,
		1e-6, -1e-6, 9.99e-7, 1e-7, -1e-7, 1e-9, 1e-10, 1.5e-38,
		math.SmallestNonzeroFloat32, 1e-40, -1e-44, // subnormals
		1e20, 9.999999e20, 1e21, -1e21, 3.4e30, math.MaxFloat32, -math.MaxFloat32,
		math.Nextafter32(1e-6, 0), math.Nextafter32(1e21, 0),
	}
	for _, f := range floats {
		r := Result{Rows: []Row{{DurationMs: f}}}
		t.Run(strconv.FormatFloat(float64(f), 'g', -1, 32), func(t *testing.T) { checkJSON(t, &r) })
	}
	for _, f := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		r := Result{Rows: []Row{sampleRow(), {DurationMs: f}}}
		if b, err := r.AppendJSON(nil); err == nil {
			t.Fatalf("duration %v rendered without error: %q", f, b)
		}
		checkJSON(t, &r)
	}
}

func TestAppendJSONStrings(t *testing.T) {
	strs := []string{
		"", "4G", "success", `"quoted" \back\slash/`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "\u2028 and \u2029", "héllo wörld", "日本語", "\U0001F600",
		"\xff\xfe bad", "trail\xe2\x82", "a\xed\xa0\x80b", "\u2029\ufffd\ufeff",
	}
	for _, s := range strs {
		row := sampleRow()
		row.SourceRAT, row.TargetRAT, row.Result = s, s+s, "x"+s
		r := Result{Rows: []Row{row}}
		t.Run(strconv.Quote(s), func(t *testing.T) { checkJSON(t, &r) })
	}
}

// fillExported sets every exported field reachable from v to a non-zero
// value: pointers get allocated, slices and maps two elements.
func fillExported(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillExported(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillExported(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillExported(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillExported(t, k, n)
			fillExported(t, e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fillExported: unhandled kind %s; teach it the new field's type", v.Kind())
	}
}

// TestAppendJSONCoversEveryField fills every exported field of Result,
// Row, Metrics and UESliceAggregate, so a field added to any of them
// that AppendJSON does not render fails here.
func TestAppendJSONCoversEveryField(t *testing.T) {
	var r Result
	fillExported(t, reflect.ValueOf(&r).Elem(), new(int))
	if !r.Truncated || r.Aggregate == nil || len(r.Aggregate.PingPongs) == 0 || r.Rows[1].Cause == 0 {
		t.Fatalf("fill left an omitempty field empty: %+v", r)
	}
	checkJSON(t, &r)
}

func FuzzResultJSON(f *testing.F) {
	f.Add(int64(1706486400123), uint32(3), uint32(35000001), uint32(7), uint32(8),
		"4G", "5G", "success", uint16(0), math.Float32bits(43.25), false)
	f.Add(int64(-1), uint32(0), uint32(0), uint32(0), uint32(0),
		"", "<&>", "failure", uint16(17), math.Float32bits(1e-7), true)
	f.Add(int64(0), uint32(1), uint32(2), uint32(3), uint32(4),
		"\xff\u2028", "\x00\"\\", "\U0001F600", uint16(65535), math.Float32bits(float32(math.NaN())), true)
	f.Add(int64(math.MaxInt64), uint32(math.MaxUint32), uint32(1), uint32(1), uint32(1),
		"3G", "2G", "success", uint16(1), math.Float32bits(math.MaxFloat32), false)
	f.Add(int64(math.MinInt64), uint32(5), uint32(5), uint32(5), uint32(5),
		"5G", "4G", "success", uint16(0), uint32(1), false) // smallest subnormal
	f.Fuzz(func(t *testing.T, ts int64, ue, tac, src, dst uint32,
		srcRAT, dstRAT, result string, cause uint16, durBits uint32, truncated bool) {
		row := Row{
			Timestamp: ts, UE: ue, TAC: tac, Source: src, Target: dst,
			SourceRAT: srcRAT, TargetRAT: dstRAT, Result: result,
			Cause: cause, DurationMs: math.Float32frombits(durBits),
		}
		r := Result{Gen: uint64(ts), Rows: []Row{row, sampleRow(), row}, Truncated: truncated,
			Metrics: Metrics{RowsScanned: int64(ue)}}
		if truncated {
			r.Aggregate = &analysis.UESliceAggregate{Records: int64(tac),
				PingPongs: map[string]int64{srcRAT: int64(cause), dstRAT: int64(src)}}
		}
		checkJSON(t, &r)
	})
}
