package analyze

import "testing"

// BenchmarkAnalyzeStore measures a full-store analytics scan over the
// canonical synthetic fixture (512 jobs, 4 shards, realistic Result
// payloads): decode, fold, merge, render to canonical JSON. The store
// scanner's scratch reuse keeps per-record allocations to the decoded
// Result trees themselves; the tracked twin is the benchmark ladder's
// analyze.compute_ms.
func BenchmarkAnalyzeStore(b *testing.B) {
	dir := b.TempDir()
	if _, err := BenchStore(dir, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Compute([]string{dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Doc().JSON(); err != nil {
			b.Fatal(err)
		}
	}
}
