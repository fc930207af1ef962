package mfc

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestAttributionNamesTheRightResource runs each lab workload and checks
// that the instrumented attribution names the resource the paper assigns
// to that stage.
func TestAttributionNamesTheRightResource(t *testing.T) {
	srvCfg, site := PresetLab(BackendFastCGI)
	cfg := DefaultConfig()
	cfg.MaxCrowd = 50
	cfg.Threshold = 150 * time.Millisecond
	run, err := Run(context.Background(), SimTarget{
		Server: srvCfg, Site: site, Clients: 55, LAN: true, Seed: 6,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	atts := AttributeResources(run)
	if len(atts) != 3 {
		t.Fatalf("attributions = %d", len(atts))
	}
	byStage := map[Stage]Attribution{}
	for _, a := range atts {
		byStage[a.Stage] = a
	}

	lo := byStage[StageLargeObject]
	if !lo.Stopped {
		t.Fatal("Large Object should stop on the 100Mbit lab link at 150ms")
	}
	if lo.Dominant != ResourceNetwork {
		t.Errorf("LargeObject dominant = %v, want network", lo.Dominant)
	}
	if !lo.Agrees {
		t.Error("network attribution should confirm the black-box inference")
	}

	sq := byStage[StageSmallQuery]
	if sq.Stopped && sq.Dominant != ResourceCPU && sq.Dominant != ResourceMemory && sq.Dominant != ResourceDBPool {
		t.Errorf("SmallQuery dominant = %v, want a back-end resource", sq.Dominant)
	}

	out := RenderAttribution(atts)
	if !strings.Contains(out, "network") {
		t.Errorf("rendering missing resource names:\n%s", out)
	}
}

// TestAttributionNoStopIsNone: a strong target yields no attribution.
func TestAttributionNoStopIsNone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 30
	run, err := Run(context.Background(), SimTarget{
		Server: PresetQTP(), Site: PresetQTSite(7), Clients: 60, Seed: 8,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range AttributeResources(run) {
		if a.Stopped {
			t.Errorf("%v stopped on QTP", a.Stage)
		}
		if a.Dominant != ResourceNone {
			t.Errorf("%v dominant = %v on an idle farm, want none", a.Stage, a.Dominant)
		}
	}
}

// TestExponentialStagger: the exponential inter-arrival variant still
// spreads the load enough to be absorbed by a weak server.
func TestExponentialStagger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 30
	cfg.Stagger = 150 * time.Millisecond
	cfg.StaggerDist = StaggerExponential
	run, err := Run(context.Background(), SimTarget{
		Server: PresetUniv1(), Site: PresetUniv1Site(5), Clients: 60, Seed: 3,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if sr := run.Result.Stages[0]; sr.Verdict != VerdictNoStop {
		t.Errorf("verdict = %v, want NoStop under Poisson arrivals", sr.Verdict)
	}
	if StaggerExponential.String() != "exponential" || StaggerUniform.String() != "uniform" {
		t.Error("StaggerDist strings")
	}
}
