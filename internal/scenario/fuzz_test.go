package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"mfc/internal/content"
	"mfc/internal/websim"
)

func testSite(t testing.TB) *content.Site {
	t.Helper()
	site, err := content.NewSite("t", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.KindText, Size: 2048},
		{URL: "/big.bin", Kind: content.KindBinary, Size: 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// FuzzScenarioConfig locks the decode path: arbitrary bytes never panic,
// anything Decode accepts is valid, survives every derived computation, and
// round-trips through JSON to an equal configuration.
func FuzzScenarioConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"loss":0.5}`))
	f.Add([]byte(`{"rtt_bands":[{"name":"sat","rtt":600000000,"jitter":0.1,"bandwidth":1e6,"weight":2}]}`))
	f.Add([]byte(`{"rate_limit":{"rate":400,"burst":40,"reject":true},"front_cache":{"hit_ratio":0.8}}`))
	f.Add([]byte(`{"diurnal":{"period":240000000000,"low":0.2,"high":2},"cross_traffic":{"peak_rate":30,"start_at":30000000000}}`))
	f.Add([]byte(`{"faults":[{"kind":"flap","at":60000000000,"duration":5000000000},{"kind":"capacity-step","at":45000000000,"factor":0.4},{"kind":"loss-burst","at":120000000000,"loss":0.05}]}`))
	for _, name := range Names() {
		c, err := Parse(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Decode accepted a config Validate rejects: %v\ninput: %q", err, data)
		}
		// Every derived computation must tolerate whatever decoded.
		_ = c.Label()
		_ = c.Effects()
		_ = c.WrapServer(websim.Config{})
		_ = c.Specs(1, 8)

		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		c2, err := Decode(out)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %s", err, out)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip not identical:\n first: %+v\nsecond: %+v", c, c2)
		}
	})
}
