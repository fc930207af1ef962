package mfc

// Differential equivalence of the netsim kernels at full-experiment scale:
// every experiment must produce byte-identical results whether Link
// waterfills run immediately on each flow change (the reference kernel)
// or batched once per simulated instant (the default). The comparison
// covers the complete core.Result encoding, the server-side event trace
// (access-log hash), and the simulated duration, across eight seeds, the
// §4 presets, and sites sampled from several §5 population bands.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mfc/internal/netsim"
	"mfc/internal/population"
)

// runFingerprint reduces one simulated experiment to a comparable tuple:
// the full Result JSON, a hash of the server's request-arrival trace, and
// the virtual time span.
type runFingerprint struct {
	resultJSON string
	traceHash  string
	elapsed    string
}

func fingerprint(t *testing.T, target SimTarget, cfg Config, opts ...RunOption) runFingerprint {
	t.Helper()
	run, err := Run(context.Background(), target, cfg, opts...)
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	return fingerprintOf(t, run)
}

func fingerprintOf(t *testing.T, run *Session) runFingerprint {
	t.Helper()
	res, err := json.Marshal(run.Result)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	h := sha256.New()
	for _, a := range run.Server.AccessLog() {
		fmt.Fprintf(h, "%d %s %s %s\n", a.At, a.Method, a.URL, a.Tag)
	}
	return runFingerprint{
		resultJSON: string(res),
		traceHash:  hex.EncodeToString(h.Sum(nil)),
		elapsed:    run.VirtualElapsed.String(),
	}
}

// underImmediateKernel runs fn with the reference kernel selected for every
// environment created inside, restoring the default afterwards.
func underImmediateKernel(t *testing.T, fn func()) {
	t.Helper()
	newSimEnv = func(seed int64) *netsim.Env {
		env := netsim.NewEnv(seed)
		env.SetImmediateReallocate(true)
		return env
	}
	defer func() { newSimEnv = netsim.NewEnv }()
	fn()
}

func diffCompare(t *testing.T, name string, target SimTarget, cfg Config) {
	t.Helper()
	batched := fingerprint(t, target, cfg)
	var immediate runFingerprint
	underImmediateKernel(t, func() { immediate = fingerprint(t, target, cfg) })
	if batched.resultJSON != immediate.resultJSON {
		t.Errorf("%s: Result diverges between kernels\nbatched:   %.400s\nimmediate: %.400s",
			name, batched.resultJSON, immediate.resultJSON)
	}
	if batched.traceHash != immediate.traceHash {
		t.Errorf("%s: event-trace hash diverges: batched %s, immediate %s",
			name, batched.traceHash, immediate.traceHash)
	}
	if batched.elapsed != immediate.elapsed {
		t.Errorf("%s: virtual elapsed diverges: batched %s, immediate %s",
			name, batched.elapsed, immediate.elapsed)
	}
}

// TestBatchedKernelMatchesImmediateAcrossSeeds runs the QTNP three-stage
// experiment under both kernels for eight seeds, with per-sample retention
// on so even sample-level orderings are compared.
func TestBatchedKernelMatchesImmediateAcrossSeeds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 50
	cfg.KeepSamples = true
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffCompare(t, fmt.Sprintf("qtnp/seed%d", seed), SimTarget{
				Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: seed,
			}, cfg)
		})
	}
}

// TestBatchedKernelMatchesImmediatePresets covers structurally different
// targets: the weak-query university server, a LAN lab setting, and a lossy
// control channel (command and poll drops exercise the no-reply paths).
func TestBatchedKernelMatchesImmediatePresets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 40
	cfg.MinClients = 30
	cases := []struct {
		name   string
		target SimTarget
	}{
		{"univ3", SimTarget{Server: PresetUniv3(), Site: PresetUniv3Site(5), Clients: 65, Seed: 11}},
		{"univ1-lan", SimTarget{Server: PresetUniv1(), Site: PresetUniv1Site(5), Clients: 40, LAN: true, Seed: 12}},
		{"qtnp-lossy", SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: 13,
			CommandLoss: 0.1, PollLoss: 0.1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { diffCompare(t, c.name, c.target, cfg) })
	}
}

// TestBatchedKernelMatchesImmediateBands samples sites from several §5
// population bands — the synchronized mini-flash-crowd workload batching
// was built for — and compares full runs under both kernels.
func TestBatchedKernelMatchesImmediateBands(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 40
	cfg.MinClients = 30
	bands := []population.Band{population.Rank1K, population.Rank100K, population.Startup, population.Phishing}
	for _, band := range bands {
		band := band
		t.Run(band.String(), func(t *testing.T) {
			for i := 0; i < 2; i++ {
				sample := population.SampleAt(band, i, 77)
				target := SimTarget{
					Server: sample.Config, Site: sample.Site,
					Clients: 40, Seed: sample.MeasureSeed,
				}
				diffCompare(t, fmt.Sprintf("%s-%d", band, i), target, cfg)
			}
		})
	}
}
