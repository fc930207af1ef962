package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mfc/internal/core"
	"mfc/internal/population"
)

// unmarshalLine is what decodeLine must agree with: encoding/json into a
// Record (full) or a compactRecord.
func unmarshalLine(line []byte, full bool) (Record, error) {
	if full {
		var rec Record
		err := json.Unmarshal(line, &rec)
		return rec, err
	}
	var c compactRecord
	err := json.Unmarshal(line, &c)
	return c.Record, err
}

// FuzzDecodeLine is the differential test of the one-pass decoder: in
// both modes decodeLine fails exactly when json.Unmarshal does and
// otherwise yields a deeply equal Record. Seed corpus:
// testdata/fuzz/FuzzDecodeLine (canonical clean, chaos and Unavailable
// records, a torn prefix, repeated keys, [] against null, case-folded
// keys, escapes, invalid UTF-8, whitespace, non-integral and overflowing
// ints, nesting past the skip bound, trailing bytes) plus the seeds below.
func FuzzDecodeLine(f *testing.F) {
	whole, _ := json.Marshal(fuzzRecord(1))
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add([]byte("null"))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, full := range []bool{false, true} {
			var got Record
			gotErr := decodeLine(line, &got, full)
			want, wantErr := unmarshalLine(line, full)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("full=%v: decodeLine error %v, json.Unmarshal error %v", full, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("full=%v: decodeLine gave\n%+v\njson.Unmarshal gave\n%+v", full, got, want)
			}
		}
	})
}

// fastPathDecode decodes line in both modes, failing the test if either
// went to encoding/json or disagrees with it.
func fastPathDecode(t *testing.T, what string, line []byte) {
	t.Helper()
	for _, full := range []bool{false, true} {
		before := decodeFallbacks.Load()
		var got Record
		if err := decodeLine(line, &got, full); err != nil {
			t.Fatalf("%s (full=%v): %v", what, full, err)
		}
		if n := decodeFallbacks.Load() - before; n != 0 {
			t.Fatalf("%s (full=%v) fell back to encoding/json:\n%s", what, full, line)
		}
		if want, _ := unmarshalLine(line, full); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (full=%v) decoded differently from encoding/json", what, full)
		}
	}
}

// shardLines returns every line of the shard files under dir.
func shardLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shards", "shard-*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files under %s (%v)", dir, err)
	}
	var lines [][]byte
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			lines = append(lines, bytes.Clone(sc.Bytes()))
		}
	}
	return lines
}

// fallbackOnly are the JSON fields only encoding/json decodes: set by
// opt-in measurement modes no campaign uses.
var fallbackOnly = map[string]bool{"Samples": true, "MeasurerMedians": true}

// fillEvery sets every JSON field of the four record types reachable from
// v to a non-zero value; a field of a kind it does not know fails the
// test, so a new field is never silently left out.
func fillEvery(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && f.Tag.Get("json") != "-" && !fallbackOnly[f.Name] {
				fillEvery(t, v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEvery(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillEvery(t, v.Index(0))
		fillEvery(t, v.Index(1))
	case reflect.String:
		v.SetString("sité-7")
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Float64:
		v.SetFloat(0.9)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillEvery: field of kind %s: teach decodeLine (or fallbackOnly) about it", v.Kind())
	}
}

// Every line a store writes takes the one-pass path: records from real
// clean and chaos campaigns, the checked-in analyze mini store, and a
// record with every JSON field of Record, core.Result, core.StageResult
// and core.EpochResult set. A field added to any of them fails here
// rather than quietly sending every line to encoding/json.
func TestCanonicalLinesTakeFastPath(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan("fast-path", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase, core.StageSmallQuery},
		[]string{"", "lossy", "flaky-link", "flash-crowd", "waf-reject"}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	lines := shardLines(t, dir)
	if len(lines) != plan.Jobs() {
		t.Fatalf("campaign stored %d lines, want %d", len(lines), plan.Jobs())
	}
	for _, line := range lines {
		fastPathDecode(t, "campaign record", line)
	}
	for _, line := range shardLines(t, filepath.Join("..", "analyze", "testdata", "ministore")) {
		fastPathDecode(t, "mini store record", line)
	}

	var every Record
	fillEvery(t, reflect.ValueOf(&every).Elem())
	line, err := json.Marshal(&every)
	if err != nil {
		t.Fatal(err)
	}
	fastPathDecode(t, "every-field record", line)

	// The fallback-only fields are exactly that: set, the line goes to
	// encoding/json and still decodes the same.
	every.Result.Stages[0].Epochs[0].Samples = []core.Sample{{Client: "c"}}
	every.Result.Stages[0].Epochs[1].MeasurerMedians = map[string]time.Duration{"m": 1}
	line, _ = json.Marshal(&every)
	before := decodeFallbacks.Load()
	var got Record
	if err := decodeLine(line, &got, true); err != nil || !reflect.DeepEqual(got, every) {
		t.Fatalf("record with Samples and MeasurerMedians: %v, equal=%v", err, reflect.DeepEqual(got, every))
	}
	if decodeFallbacks.Load() == before {
		t.Error("a non-null Samples took the one-pass path")
	}
}
