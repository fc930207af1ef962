package campaign

import (
	"encoding/json"
	"os"
	"testing"

	"mfc/internal/core"
)

// fuzzRecord returns a small valid record for job j.
func fuzzRecord(j int) *Record {
	return &Record{
		Job: j, Site: "rank-1-1K-00000", Band: "rank-1-1K", Stage: "base",
		Verdict: "Stopped", Stop: 25, Requests: 120, SimElapsedNs: 1e9,
		Result: &core.Result{Target: "rank-1-1K-00000"},
	}
}

// FuzzShardTail throws arbitrary bytes at the end of a shard file — the
// exact state a kill mid-append leaves behind — and locks the resume
// contract: reading never panics, pre-tear records survive, the tear is
// sealed so the next append lands on its own line, and no out-of-range job
// indexes leak out of the scan. Seed corpus: testdata/fuzz/FuzzShardTail
// plus the seeds below (a torn record prefix, binary garbage, a welded
// half-line, a valid foreign record).
func FuzzShardTail(f *testing.F) {
	whole, _ := json.Marshal(fuzzRecord(1))
	f.Add([]byte{})
	f.Add(whole[:len(whole)/2])                    // torn mid-record, no newline
	f.Add([]byte("{\"job\":"))                     // tiny torn prefix
	f.Add([]byte("\x00\xff\xfe garbage \x01"))     // binary junk
	f.Add(append([]byte("{\"job\":2"), whole...))  // weld: torn line + full record
	f.Add([]byte("{\"job\":7000,\"site\":\"x\"}")) // valid JSON, out-of-range job

	const shardJobs, totalJobs = 4, 8
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		st, err := OpenStore(dir, shardJobs)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if err := st.Append(fuzzRecord(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// Simulate the kill: raw bytes land after the last record with no
		// terminating newline.
		fh, err := os.OpenFile(shardPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		// Resume: the scan must survive the tail and keep the good records.
		st2, err := OpenStore(dir, shardJobs)
		if err != nil {
			t.Fatal(err)
		}
		done, err := st2.Completed(totalJobs)
		if err != nil {
			t.Fatalf("Completed over torn shard: %v", err)
		}
		if !done[0] || !done[1] {
			t.Fatalf("pre-tear records lost: done=%v", done)
		}
		for j := range done {
			if j < 0 || j >= totalJobs {
				t.Fatalf("out-of-range job %d reported done", j)
			}
		}

		// Seal: appending after the tear must terminate the torn line first,
		// so the new record is recovered whole by the next scan.
		if err := st2.Append(fuzzRecord(3)); err != nil {
			t.Fatal(err)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		done, err = st2.Completed(totalJobs)
		if err != nil {
			t.Fatal(err)
		}
		if !done[3] {
			t.Fatal("record appended after a torn tail was not sealed onto its own line")
		}
		if !done[0] || !done[1] {
			t.Fatalf("records lost after sealing append: done=%v", done)
		}
	})
}
