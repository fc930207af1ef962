package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/population"
	"mfc/internal/rng"
	"mfc/internal/websim"
)

func TestNamesSortedAndParseable(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no scenario presets registered")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, name := range names {
		c, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if c.Label() != name {
			t.Errorf("preset %q labels itself %q", name, c.Label())
		}
		if name == "clean" {
			if len(c.Effects()) > 0 {
				t.Errorf("clean preset has effects: %v", c.Effects())
			}
		} else if len(c.Effects()) == 0 {
			t.Errorf("preset %q has no effects", name)
		}
	}
}

func TestParseReturnsFreshCopies(t *testing.T) {
	a, _ := Parse("lossy")
	b, _ := Parse("lossy")
	if a == b {
		t.Fatal("Parse returned a shared preset pointer")
	}
	a.Loss = 0.77
	if b.Loss == 0.77 {
		t.Error("mutating one parsed preset leaked into the other")
	}
}

func TestParseUnknownNameListsKnown(t *testing.T) {
	_, err := Parse("no-such-scenario")
	if err == nil {
		t.Fatal("Parse accepted an unknown name")
	}
	for _, want := range []string{"clean", "chaos", "lossy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list known scenario %q", err, want)
		}
	}
}

func TestParseInlineJSON(t *testing.T) {
	c, err := Parse(`{"name":"adhoc","loss":0.02,"faults":[{"kind":"flap","at":60000000000,"duration":5000000000}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Label() != "adhoc" || c.Loss != 0.02 || len(c.Faults) != 1 {
		t.Errorf("parsed config = %+v", c)
	}
}

func TestDecodeStrict(t *testing.T) {
	for _, bad := range []string{
		`{"loss":0.01,"bogus":1}`,   // unknown field
		`{"loss":0.01} trailing`,    // trailing data
		`{"loss":2}`,                // invariant violation
		`{"loss":-0.1}`,             // negative loss
		`{"rtt_bands":[{"rtt":0}]}`, // band without RTT
		`{"rtt_bands":[{"rtt":1000000,"jitter":1}]}`,
		`{"rate_limit":{"rate":-1}}`,
		`{"front_cache":{"hit_ratio":1.5}}`,
		`{"diurnal":{"period":60000000000,"low":2,"high":1}}`,
		`{"cross_traffic":{"peak_rate":-5}}`,
		`{"cross_traffic":{"method":"HEAD"}}`,                     // the surge's method is not configurable
		`{"loss":0.01,"loss_rto":100000000}`,                      // the stall is lossRTO
		`{"front_cache":{"hit_ratio":0.5,"bandwidth":1e6}}`,       // the edge rate is fixed
		`{"cross_traffic":{"peak_rate":5,"client_rtt":40000000}}`, // so is a visitor's path
		`{"cross_traffic":{"peak_rate":5,"client_bw":1e6}}`,
		`{"faults":[{"kind":"meteor","at":0}]}`,
		`{"faults":[{"kind":"flap","at":-1}]}`,
		`not json`,
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) accepted invalid input", bad)
		}
	}
	if _, err := Decode([]byte(`{}`)); err != nil {
		t.Errorf("Decode({}) = %v, want clean pass-through", err)
	}
}

func TestUnknownFaultKindErrorListsKnownKinds(t *testing.T) {
	c := &Config{Faults: []Fault{{Kind: "meteor"}}}
	err := c.Validate()
	if err == nil {
		t.Fatal("unknown fault kind validated")
	}
	for _, want := range []string{FaultFlap, FaultCapacityStep, FaultLossBurst} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list fault kind %q", err, want)
		}
	}
}

func TestEffectsCanonicalAndInertOmitted(t *testing.T) {
	c := &Config{
		Loss:         0.01,
		RTTBands:     []RTTBand{{RTT: 50 * time.Millisecond}},
		FrontCache:   &websim.FrontCache{HitRatio: 0.8},
		RateLimit:    &websim.RateLimit{Rate: 400, Reject: true},
		Diurnal:      &Diurnal{Period: 4 * time.Minute, Low: 0.2, High: 2},
		CrossTraffic: &websim.FlashCrowdConfig{PeakRate: 30, StartAt: 30 * time.Second},
		Faults: []Fault{
			{Kind: FaultFlap, At: time.Minute, Duration: 5 * time.Second},
			{Kind: FaultFlap, At: 2 * time.Minute},                // inert: no duration
			{Kind: FaultCapacityStep, At: time.Minute, Factor: 1}, // inert: factor 1
		},
	}
	want := []string{
		"loss=0.01", "rtt-bands=1", "front-cache=0.8", "rate-limit=400/s,reject",
		"diurnal=4m0s", "cross-traffic=30/s@30s", "flap@1m0s",
	}
	if got := c.Effects(); !reflect.DeepEqual(got, want) {
		t.Errorf("Effects() = %v\nwant       %v", got, want)
	}

	// Configured-but-zero-intensity effects are valid and invisible.
	inert := &Config{
		RateLimit:    &websim.RateLimit{},
		FrontCache:   &websim.FrontCache{},
		Diurnal:      &Diurnal{},
		CrossTraffic: &websim.FlashCrowdConfig{},
		Faults:       []Fault{{Kind: FaultLossBurst, At: time.Minute}},
	}
	if err := inert.Validate(); err != nil {
		t.Errorf("inert config invalid: %v", err)
	}
	if len(inert.Effects()) > 0 {
		t.Errorf("inert config reports effects: %v", inert.Effects())
	}
	var nilC *Config
	if nilC.Effects() != nil || nilC.Validate() != nil {
		t.Error("nil Config must be the clean pass-through")
	}
}

func TestSpecsDeterministicAcrossPopulationSizes(t *testing.T) {
	c := &Config{RTTBands: []RTTBand{
		{Name: "near", RTT: 25 * time.Millisecond, Weight: 3},
		{Name: "far", RTT: 150 * time.Millisecond, Weight: 1},
	}}
	small := c.Specs(42, 10)
	large := c.Specs(42, 100)
	if len(small) != 10 || len(large) != 100 {
		t.Fatalf("lengths = %d, %d", len(small), len(large))
	}
	// Client i's spec must not depend on how many other clients exist.
	for i := range small {
		if !reflect.DeepEqual(small[i], large[i]) {
			t.Fatalf("spec %d differs across population sizes:\n%+v\n%+v", i, small[i], large[i])
		}
	}
	if again := c.Specs(42, 10); !reflect.DeepEqual(small, again) {
		t.Error("same (seed, n) produced different specs")
	}
	if other := c.Specs(43, 10); reflect.DeepEqual(small, other) {
		t.Error("different seeds produced identical specs")
	}
}

func TestSpecsWeightingAndJitter(t *testing.T) {
	c := &Config{RTTBands: []RTTBand{
		{Name: "near", RTT: 25 * time.Millisecond, Weight: 9},
		{Name: "far", RTT: 500 * time.Millisecond, Weight: 1},
	}}
	specs := c.Specs(1, 2000)
	near := 0
	for _, s := range specs {
		if strings.HasPrefix(s.ID, "near-") {
			near++
			// Default jitter 0.2: RTT within ±20% of the band center.
			lo, hi := 20*time.Millisecond, 30*time.Millisecond
			if s.TargetRTT < lo || s.TargetRTT > hi {
				t.Fatalf("near client RTT %v outside [%v, %v]", s.TargetRTT, lo, hi)
			}
		}
		if s.CtrlRTT >= s.TargetRTT {
			t.Fatalf("client %s: control RTT %v not below target RTT %v", s.ID, s.CtrlRTT, s.TargetRTT)
		}
	}
	// 9:1 weighting over 2000 clients: expect ~1800 near, generous slack.
	if near < 1700 || near > 1900 {
		t.Errorf("near band got %d of 2000 clients, want ~1800", near)
	}
}

// TestSpecsMatchFreshSourcePerClient: Specs reseeds one source per client
// in place; every spec must equal what a fresh source seeded with the
// client's mixed seed draws.
func TestSpecsMatchFreshSourcePerClient(t *testing.T) {
	c, err := Parse("global-clients")
	if err != nil {
		t.Fatal(err)
	}
	const n = 65
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		got := c.Specs(seed, n)
		for i, sp := range got {
			r := rand.New(rng.New(population.MixSeed(seed, int64(i))))
			x := r.Float64() * 10 // the bands' weights are 5, 4 and 1
			k := 0
			for k < len(c.RTTBands)-1 && x >= c.RTTBands[k].Weight {
				x -= c.RTTBands[k].Weight
				k++
			}
			b := c.RTTBands[k]
			jitter := b.Jitter
			if jitter == 0 {
				jitter = 0.2
			}
			rtt := time.Duration(float64(b.RTT) * (1 + jitter*(2*r.Float64()-1)))
			want := core.SimClientSpec{
				ID:        fmt.Sprintf("%s-%03d", b.Name, i),
				TargetRTT: rtt,
				CtrlRTT:   time.Duration(float64(rtt) * 0.8),
				Bandwidth: b.Bandwidth,
				Jitter:    0.02 + 0.06*r.Float64(),
			}
			if sp != want {
				t.Fatalf("seed %d client %d: got %+v, want %+v", seed, i, sp, want)
			}
		}
	}
}

// raceEnabled is set under the race detector, which drops sync.Pool puts
// at random and so inflates fmt's allocations past any budget.
var raceEnabled bool

// TestAllocBudgetSpecs: a 65-client global-clients population reseeds one
// source per call instead of allocating one per client (355 KB and 197
// allocations before; 11 KB and 133 after).
func TestAllocBudgetSpecs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := Parse("global-clients")
	if err != nil {
		t.Fatal(err)
	}
	const n = 65
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		c.Specs(seed, n)
		seed++
	})
	runtime.ReadMemStats(&after)
	if allocs > 140 {
		t.Errorf("Specs(seed, %d) makes %.0f allocations per call, budget 140", n, allocs)
	}
	if perCall := (after.TotalAlloc - before.TotalAlloc) / uint64(seed); perCall > 16<<10 {
		t.Errorf("Specs(seed, %d) allocates %d B per call, budget 16 KB", n, perCall)
	}
}

func TestSpecsNilWithoutBands(t *testing.T) {
	if specs := (&Config{}).Specs(1, 10); specs != nil {
		t.Errorf("bandless Specs = %v, want nil", specs)
	}
	var nilC *Config
	if specs := nilC.Specs(1, 10); specs != nil {
		t.Errorf("nil Specs = %v, want nil", specs)
	}
}

func TestWrapServerCopiesOnlyActiveEffects(t *testing.T) {
	base := websim.Config{Name: "srv", Cores: 2}
	wrapped := (&Config{
		Loss:       0.01,
		RateLimit:  &websim.RateLimit{Rate: 100, Burst: 10, Reject: true},
		FrontCache: &websim.FrontCache{HitRatio: 0.5},
	}).WrapServer(base)
	if wrapped.RateLimit != (websim.RateLimit{Rate: 100, Burst: 10, Reject: true}) {
		t.Errorf("rate limit not applied: %+v", wrapped)
	}
	if wrapped.FrontCache != (websim.FrontCache{HitRatio: 0.5}) {
		t.Errorf("front cache not applied: %+v", wrapped)
	}
	if wrapped.PathLoss != 0.01 {
		t.Errorf("loss not applied: %+v", wrapped)
	}
	if wrapped.Name != "srv" || wrapped.Cores != 2 {
		t.Errorf("unrelated fields clobbered: %+v", wrapped)
	}

	// Zero-intensity tiers leave the config bit-for-bit alone.
	inert := (&Config{RateLimit: &websim.RateLimit{}, FrontCache: &websim.FrontCache{}}).WrapServer(base)
	if !reflect.DeepEqual(inert, base) {
		t.Errorf("inert WrapServer changed the config:\n%+v\n%+v", inert, base)
	}
	var nilC *Config
	if got := nilC.WrapServer(base); !reflect.DeepEqual(got, base) {
		t.Error("nil WrapServer changed the config")
	}
}

func TestControllerInjectsAndRestoresFault(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := websim.NewServer(env, websim.Config{}, testSite(t))
	c := &Config{Name: "t", Faults: []Fault{
		{Kind: FaultCapacityStep, At: 100 * time.Millisecond, Duration: 100 * time.Millisecond, Factor: 0.5},
	}}
	var events []core.Event
	ctl := c.Start(Hooks{Env: env, Server: srv, Emit: func(ev core.Event) { events = append(events, ev) }})

	var during, after float64
	env.GoAfter("probe", 150*time.Millisecond, func(p *netsim.Proc) {
		during = srv.AccessLink().CapacityFactor()
		p.Sleep(100 * time.Millisecond)
		after = srv.AccessLink().CapacityFactor()
	})
	env.Run(0)
	ctl.Stop()

	if during != 0.5 {
		t.Errorf("capacity factor during fault = %v, want 0.5", during)
	}
	if after != 1 {
		t.Errorf("capacity factor after restore = %v, want 1", after)
	}
	if len(events) != 3 { // ScenarioApplied + inject + restore
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	if sa, ok := events[0].(core.ScenarioApplied); !ok || sa.Name != "t" {
		t.Errorf("first event = %+v, want ScenarioApplied{t}", events[0])
	}
	inj, ok := events[1].(core.FaultInjected)
	if !ok || inj.Kind != FaultCapacityStep || inj.Restored {
		t.Errorf("second event = %+v, want unrestored capacity-step", events[1])
	}
	rst, ok := events[2].(core.FaultInjected)
	if !ok || !rst.Restored || rst.At != 200*time.Millisecond {
		t.Errorf("third event = %+v, want restore at 200ms", events[2])
	}
}

func TestControllerStopCancelsPendingFaults(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := websim.NewServer(env, websim.Config{}, testSite(t))
	c := &Config{Faults: []Fault{{Kind: FaultFlap, At: time.Hour, Duration: time.Minute}}}
	fired := false
	ctl := c.Start(Hooks{Env: env, Server: srv, Emit: func(ev core.Event) {
		if _, ok := ev.(core.FaultInjected); ok {
			fired = true
		}
	}})
	env.GoAfter("work", 0, func(p *netsim.Proc) { p.Sleep(50 * time.Millisecond) })
	ctl.Stop()
	env.Run(0)
	if fired {
		t.Error("fault fired after Stop")
	}
	// Canceled fault timers must not drag virtual time out to the trigger.
	if got := env.Now(); got != 50*time.Millisecond {
		t.Errorf("run ended at %v, want 50ms (canceled fault extended the clock)", got)
	}
}

// generatorRig is a server with background load, wrapped in a scenario
// whose only effects are the two generator processes.
func generatorRig(t *testing.T, site *content.Site, c *Config) (*netsim.Env, *websim.Server, *websim.BackgroundTraffic, *Controller) {
	t.Helper()
	env := netsim.NewEnv(4)
	srv := websim.NewServer(env, websim.Config{}, site)
	srv.EnableAccessLog()
	bg := websim.StartBackground(env, srv, websim.BackgroundConfig{Rate: 10})
	return env, srv, bg, c.Start(Hooks{Env: env, Server: srv, Background: bg})
}

func crossTrafficArrivals(srv *websim.Server) (n int, last time.Duration) {
	for _, a := range srv.AccessLog() {
		if a.Tag == "xt" {
			n++
			last = a.At
		}
	}
	return n, last
}

var generatorsOnly = Config{
	Diurnal:      &Diurnal{Period: 16 * time.Second, Low: 0.5, High: 4},
	CrossTraffic: &websim.FlashCrowdConfig{PeakRate: 40, RampUp: 5 * time.Second, Hold: 5 * time.Second, StartAt: 2 * time.Second},
}

func TestGeneratorsStopBeforeFirstWakeup(t *testing.T) {
	env, srv, bg, ctl := generatorRig(t, testSite(t), &generatorsOnly)
	ctl.Stop()
	bg.Stop()
	// The cross-traffic task is already asleep until StartAt; that wake is
	// the last entry, and it finds the flag.
	if end := env.Run(0); end != 2*time.Second {
		t.Errorf("stopped scenario ran until %v, want the StartAt wake at 2s", end)
	}
	if n, _ := crossTrafficArrivals(srv); n != 0 || bg.Rate() != 10 {
		t.Errorf("%d cross-traffic arrivals, background rate %v after Stop before the first wakeup", n, bg.Rate())
	}
	if st := env.Stats(); st.Handoffs != 0 {
		t.Errorf("%d goroutine handoffs, want 0", st.Handoffs)
	}
}

func TestGeneratorsStopMidRun(t *testing.T) {
	env, srv, bg, ctl := generatorRig(t, testSite(t), &generatorsOnly)
	var rateAtStop float64
	env.After(6*time.Second, func() {
		ctl.Stop()
		bg.Stop()
		rateAtStop = bg.Rate()
	})
	end := env.Run(0)
	// Diurnal steps every second: six updates in, the rate is on its way up
	// from Low× toward High× the base of 10.
	if rateAtStop <= 10 || rateAtStop > 40 {
		t.Errorf("background rate at 6s = %v, want inside (10, 40]", rateAtStop)
	}
	if bg.Rate() != rateAtStop {
		t.Errorf("rate moved from %v to %v after Stop", rateAtStop, bg.Rate())
	}
	// Four seconds of a five-second ramp to 40/s: ~64 arrivals, none after
	// the stop.
	n, last := crossTrafficArrivals(srv)
	if n < 30 || n > 120 {
		t.Errorf("%d cross-traffic arrivals by 6s, want ~64", n)
	}
	if last > 6*time.Second {
		t.Errorf("cross-traffic arrival at %v, after Stop at 6s", last)
	}
	if end > 20*time.Second {
		t.Errorf("stopped scenario ran until %v", end)
	}
	if st := env.Stats(); st.Handoffs != 0 {
		t.Errorf("%d goroutine handoffs in a run of generators and visitors, want 0", st.Handoffs)
	}
}

// A diurnal SetRate applies at the background generator's next draw, so
// more visitors arrive in the high half of the cycle than in the low one.
func TestDiurnalModulatesArrivals(t *testing.T) {
	c := &Config{Diurnal: &Diurnal{Period: 160 * time.Second, Low: 0.1, High: 3}}
	env, srv, bg, ctl := generatorRig(t, testSite(t), c)
	env.After(160*time.Second, func() { ctl.Stop(); bg.Stop() })
	env.Run(0)
	trough, crest := 0, 0 // first and third quarter straddle the extremes
	for _, a := range srv.AccessLog() {
		switch {
		case a.At < 20*time.Second || a.At >= 140*time.Second:
			trough++
		case a.At >= 60*time.Second && a.At < 100*time.Second:
			crest++
		}
	}
	if crest < 4*trough || trough == 0 {
		t.Errorf("%d arrivals around the crest, %d around the trough; want the 30:1 rate swing to show", crest, trough)
	}
}

func TestCrossTrafficWithoutStaticObjectSpawnsNobody(t *testing.T) {
	site, err := content.NewSite("q", "/search?q=1", []content.Object{
		{URL: "/search?q=1", Kind: content.KindQuery, Size: 4096, Dynamic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &Config{CrossTraffic: &websim.FlashCrowdConfig{PeakRate: 40}}
	env := netsim.NewEnv(4)
	srv := websim.NewServer(env, websim.Config{}, site)
	c.Start(Hooks{Env: env, Server: srv})
	if end := env.Run(0); end != 0 {
		t.Errorf("cross-traffic with no target ran until %v", end)
	}
	if st := env.Stats(); st.Dispatched != 1 || st.Handoffs != 0 || srv.Served() != 0 {
		t.Errorf("stats = %+v, served = %d; want the task's start entry alone", st, srv.Served())
	}
}
