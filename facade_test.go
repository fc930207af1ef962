package mfc

import (
	"testing"
	"time"
)

// The facade must expose a usable public API: presets return valid
// configurations, sites are crawlable, and the re-exported types
// interoperate with the helpers.

func TestPresetsReturnValidConfigs(t *testing.T) {
	presets := map[string]ServerConfig{
		"qtnp": PresetQTNP(), "qtp": PresetQTP(),
		"univ1": PresetUniv1(), "univ2": PresetUniv2(), "univ3": PresetUniv3(),
	}
	for name, cfg := range presets {
		if cfg.Name == "" {
			t.Errorf("%s: empty name", name)
		}
		if cfg.AccessBandwidth <= 0 {
			t.Errorf("%s: no bandwidth", name)
		}
	}
	if PresetQTP().Replicas != 16 {
		t.Error("QTP must model 16 load-balanced servers")
	}
}

func TestPresetSitesHaveStageContent(t *testing.T) {
	sites := map[string]*Site{
		"qt":    PresetQTSite(1),
		"univ1": PresetUniv1Site(1),
		"univ2": PresetUniv2Site(1),
		"univ3": PresetUniv3Site(1),
	}
	for name, site := range sites {
		hasLarge, hasQuery := false, false
		for _, o := range site.Objects() {
			if o.IsLargeObject() {
				hasLarge = true
			}
			if o.IsSmallQuery() {
				hasQuery = true
			}
		}
		if !hasLarge || !hasQuery {
			t.Errorf("%s: large=%v query=%v; every preset site must support all stages",
				name, hasLarge, hasQuery)
		}
	}
}

func TestPresetValidationAndLab(t *testing.T) {
	cfg, site := PresetValidation(LinearModel{Slope: time.Millisecond})
	if cfg.Synthetic == nil {
		t.Error("validation preset lost its model")
	}
	if site.Len() < 2 {
		t.Error("validation site too small")
	}
	lab, labSite := PresetLab(BackendFastCGI)
	if lab.Backend != BackendFastCGI {
		t.Error("lab backend not applied")
	}
	if _, ok := labSite.Lookup("/large100k.bin"); !ok {
		t.Error("lab site missing the 100KB object")
	}
}

func TestGenerateSiteAndNewSite(t *testing.T) {
	site := GenerateSite("api.example", 3, SiteGenConfig{Pages: 5})
	if site.Host != "api.example" || site.Len() == 0 {
		t.Errorf("GenerateSite = %v objects on %s", site.Len(), site.Host)
	}
	manual, err := NewSite("m", "/x", []Object{{URL: "/x", Size: 10}})
	if err != nil || manual.BasePage().Size != 10 {
		t.Errorf("NewSite: %v", err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Threshold != 100*time.Millisecond {
		t.Errorf("θ = %v, want the paper's 100ms", cfg.Threshold)
	}
	if cfg.MinClients != 50 {
		t.Errorf("MinClients = %d, want 50", cfg.MinClients)
	}
	if cfg.RequestTimeout != 10*time.Second {
		t.Errorf("timeout = %v, want 10s", cfg.RequestTimeout)
	}
	if !cfg.CheckPhase {
		t.Error("check phase must default on")
	}
	if cfg.LargeObserveFrac != 0.90 || cfg.Quantile(StageBase) != 0.50 {
		t.Error("observe fractions must match the paper")
	}
}

func TestStagesOrder(t *testing.T) {
	if len(Stages) != 3 || Stages[0] != StageBase || Stages[2] != StageLargeObject {
		t.Errorf("Stages = %v", Stages)
	}
}
