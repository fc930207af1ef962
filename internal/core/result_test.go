package core

import (
	"testing"
	"time"
)

func TestCurveMediansSkipsCheckEpochs(t *testing.T) {
	sr := &StageResult{
		Epochs: []EpochResult{
			{Kind: EpochRamp, Crowd: 5, NormMedian: 10 * time.Millisecond},
			{Kind: EpochRamp, Crowd: 10, NormMedian: 20 * time.Millisecond},
			{Kind: EpochCheckMinus, Crowd: 9, NormMedian: 99 * time.Millisecond},
			{Kind: EpochCheckRepeat, Crowd: 10, NormMedian: 99 * time.Millisecond},
		},
	}
	crowds, medians := sr.CurveMedians()
	if len(crowds) != 2 || crowds[1] != 10 || medians[1] != 20*time.Millisecond {
		t.Errorf("CurveMedians = %v %v", crowds, medians)
	}
}

func TestLastRamp(t *testing.T) {
	sr := &StageResult{}
	if sr.LastRamp() != nil {
		t.Error("LastRamp on empty should be nil")
	}
	sr.Epochs = []EpochResult{
		{Kind: EpochRamp, Crowd: 5},
		{Kind: EpochRamp, Crowd: 10},
		{Kind: EpochCheckPlus, Crowd: 11},
	}
	if e := sr.LastRamp(); e == nil || e.Crowd != 10 {
		t.Errorf("LastRamp = %+v, want crowd 10", e)
	}
}

func TestEpochKindStrings(t *testing.T) {
	for k, want := range map[EpochKind]string{
		EpochRamp: "ramp", EpochCheckMinus: "check-",
		EpochCheckRepeat: "check=", EpochCheckPlus: "check+",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestStageStrings(t *testing.T) {
	for s, want := range map[Stage]string{
		StageBase: "Base", StageSmallQuery: "SmallQuery", StageLargeObject: "LargeObject",
	} {
		if s.String() != want {
			t.Errorf("Stage string = %q, want %q", s.String(), want)
		}
	}
}

func TestQuantileOfUsesNormalized(t *testing.T) {
	samples := []Sample{
		{Resp: 100 * time.Millisecond, Base: 40 * time.Millisecond}, // 60ms
		{Resp: 90 * time.Millisecond, Base: 40 * time.Millisecond},  // 50ms
		{Resp: 80 * time.Millisecond, Base: 40 * time.Millisecond},  // 40ms
	}
	if q := quantileOf(samples, 0.5); q != 50*time.Millisecond {
		t.Errorf("median normalized = %v, want 50ms", q)
	}
	if q := quantileOf(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestSpread90(t *testing.T) {
	var samples []Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, Sample{ArriveAt: time.Duration(i+1) * time.Millisecond})
	}
	got := spread90(samples)
	// Middle 90% of 1..100ms spans ~90ms.
	if got < 85*time.Millisecond || got > 95*time.Millisecond {
		t.Errorf("spread90 = %v, want ~90ms", got)
	}
	if spread90(nil) != 0 {
		t.Error("spread90(nil) != 0")
	}
	if spread90([]Sample{{ArriveAt: time.Second}}) != 0 {
		t.Error("spread90 of one sample != 0")
	}
}

func TestConfigQuantileMapping(t *testing.T) {
	cfg := DefaultConfig()
	if q := cfg.Quantile(StageBase); q != 0.5 {
		t.Errorf("Base quantile = %v, want 0.5", q)
	}
	if q := cfg.Quantile(StageLargeObject); q < 0.099 || q > 0.101 {
		t.Errorf("LargeObject quantile = %v, want 0.10 (90%% must observe)", q)
	}
}

func TestSampleNormalized(t *testing.T) {
	s := Sample{Resp: 150 * time.Millisecond, Base: 30 * time.Millisecond}
	if s.Normalized() != 120*time.Millisecond {
		t.Errorf("Normalized = %v", s.Normalized())
	}
}

func TestResultStageLookup(t *testing.T) {
	r := &Result{Stages: []*StageResult{{Stage: StageSmallQuery}}}
	if r.Stage(StageSmallQuery) == nil {
		t.Error("Stage lookup failed")
	}
	if r.Stage(StageBase) != nil {
		t.Error("missing stage should be nil")
	}
}
