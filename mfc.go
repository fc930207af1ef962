package mfc

import (
	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/scenario"
	"mfc/internal/websim"
)

// Re-exported core types: the public API is the internal/core contract.
type (
	// Config tunes an MFC experiment (thresholds, crowd ramp, quantiles,
	// MFC-mr, staggering).
	Config = core.Config
	// Stage identifies a request category.
	Stage = core.Stage
	// Request is one HTTP request an MFC client issues.
	Request = core.Request
	// Sample is one client observation.
	Sample = core.Sample
	// Result is a full experiment outcome.
	Result = core.Result
	// StageResult is one stage's outcome.
	StageResult = core.StageResult
	// EpochResult is one epoch's outcome.
	EpochResult = core.EpochResult
	// StageVerdict is the stage-level conclusion.
	StageVerdict = core.StageVerdict
	// Assessment is the operator-facing report.
	Assessment = core.Assessment
	// Finding is one sub-system conclusion.
	Finding = core.Finding
	// Coordinator orchestrates experiments over a Platform.
	Coordinator = core.Coordinator
	// Platform abstracts where clients run (simulation, in-process live,
	// remote UDP agents).
	Platform = core.Platform
	// Client is one MFC participant.
	Client = core.Client
	// Baseline is a client's delay-computation outcome.
	Baseline = core.Baseline
	// Clock abstracts virtual vs. wall time.
	Clock = core.Clock
	// StaggerDist selects the staggered-arrival inter-arrival distribution.
	StaggerDist = core.StaggerDist
	// EpochKind distinguishes regular ramp epochs from check-phase epochs.
	EpochKind = core.EpochKind
)

// Typed event stream: Run delivers these through WithObserver.
type (
	// Event is one item of a run's typed progress stream.
	Event = core.Event
	// Observer receives events synchronously on the coordinator's
	// goroutine.
	Observer = core.Observer
	// StageStarted announces a stage is about to run.
	StageStarted = core.StageStarted
	// EpochCompleted reports one synchronized crowd's outcome.
	EpochCompleted = core.EpochCompleted
	// MeasurersReserved reports the §6 measurer reservation for one URL.
	MeasurersReserved = core.MeasurersReserved
	// CheckPhaseEntered announces the N-1/N/N+1 confirmation epochs.
	CheckPhaseEntered = core.CheckPhaseEntered
	// ScenarioApplied announces the scenario wrapping the run, before any
	// stage.
	ScenarioApplied = core.ScenarioApplied
	// FaultInjected reports a chaos trigger firing (or restoring)
	// mid-experiment.
	FaultInjected = core.FaultInjected
	// ExperimentFinished is the terminal event, exactly once per run.
	ExperimentFinished = core.ExperimentFinished
)

// Epoch kind constants.
const (
	EpochRamp        = core.EpochRamp
	EpochCheckMinus  = core.EpochCheckMinus
	EpochCheckRepeat = core.EpochCheckRepeat
	EpochCheckPlus   = core.EpochCheckPlus
)

// LogObserver renders events as human-readable progress lines through
// logf (e.g. log.Printf) — the migration path for -v style CLI flags.
func LogObserver(logf func(string, ...any)) Observer { return core.LogObserver(logf) }

// Stagger distribution constants.
const (
	StaggerUniform     = core.StaggerUniform
	StaggerExponential = core.StaggerExponential
)

// Stage constants.
const (
	StageBase        = core.StageBase
	StageSmallQuery  = core.StageSmallQuery
	StageLargeObject = core.StageLargeObject
)

// Verdict constants.
const (
	VerdictNoStop      = core.VerdictNoStop
	VerdictStopped     = core.VerdictStopped
	VerdictUnavailable = core.VerdictUnavailable
	VerdictAborted     = core.VerdictAborted
)

// Stages lists the standard stage order.
var Stages = core.Stages

// DefaultConfig returns the paper's standard parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// Assess converts raw stage results into sub-system findings, including the
// DDoS-vulnerability reading.
func Assess(r *Result) *Assessment { return core.Assess(r) }

// CompareStages renders the relative-provisioning one-liner.
func CompareStages(r *Result) string { return core.CompareStages(r) }

// Content-model types for describing targets.
type (
	// Site is a collection of web objects hosted by a (simulated) server.
	Site = content.Site
	// Object is one addressable web object.
	Object = content.Object
	// Profile is the profiling-stage outcome: objects classified into the
	// stages' request categories.
	Profile = content.Profile
	// SiteGenConfig controls synthetic site generation.
	SiteGenConfig = content.GenConfig
)

// GenerateSite builds a deterministic synthetic site.
func GenerateSite(host string, seed int64, cfg SiteGenConfig) *Site {
	return content.Generate(host, seed, cfg)
}

// NewSite builds a site from explicit objects.
func NewSite(host, base string, objects []Object) (*Site, error) {
	return content.NewSite(host, base, objects)
}

// Scenario & chaos layer: composable environment effects around a
// simulated run (see internal/scenario and DESIGN.md "Scenarios & chaos").
type (
	// Scenario declares the environment effects wrapping a SimTarget run.
	Scenario = scenario.Config
	// ScenarioRTTBand is one weighted client RTT band.
	ScenarioRTTBand = scenario.RTTBand
	// ScenarioRateLimit is the WAF-style token-bucket tier.
	ScenarioRateLimit = scenario.RateLimit
	// ScenarioFrontCache is the CDN/cache front tier.
	ScenarioFrontCache = scenario.FrontCache
	// ScenarioDiurnal modulates background load sinusoidally.
	ScenarioDiurnal = scenario.Diurnal
	// ScenarioCrossTraffic is a flash-crowd surge during the experiment.
	ScenarioCrossTraffic = scenario.CrossTraffic
	// ScenarioFault is one scheduled chaos trigger.
	ScenarioFault = scenario.Fault
)

// Chaos fault kinds.
const (
	FaultFlap         = scenario.FaultFlap
	FaultCapacityStep = scenario.FaultCapacityStep
	FaultLossBurst    = scenario.FaultLossBurst
)

// ParseScenario resolves a scenario reference — a registered name (see
// ScenarioNames) or an inline JSON object — and validates it.
func ParseScenario(s string) (*Scenario, error) { return scenario.Parse(s) }

// DecodeScenario parses and validates a JSON scenario configuration.
func DecodeScenario(data []byte) (*Scenario, error) { return scenario.Decode(data) }

// ScenarioNames lists the registered scenario presets, sorted.
func ScenarioNames() []string { return scenario.Names() }

// Server-model types for simulated targets.
type (
	// ServerConfig describes a simulated web-server installation.
	ServerConfig = websim.Config
	// ServerBackend selects the dynamic-content interface.
	ServerBackend = websim.Backend
	// BackgroundConfig describes non-MFC traffic during an experiment.
	BackgroundConfig = websim.BackgroundConfig
	// SyntheticModel is a synthetic response-time function (§3.1).
	SyntheticModel = websim.SyntheticModel
	// LinearModel, ExponentialModel, StepModel are the validation models.
	LinearModel      = websim.LinearModel
	ExponentialModel = websim.ExponentialModel
	StepModel        = websim.StepModel
)

// Backend constants.
const (
	BackendMongrel = websim.BackendMongrel
	BackendFastCGI = websim.BackendFastCGI
)

// Presets reproducing the paper's measured installations (§3, §4).

// PresetValidation returns the §3.1 validation server driven by a synthetic
// response-time model, plus its minimal site.
func PresetValidation(model SyntheticModel) (ServerConfig, *Site) {
	return websim.ValidationConfig(model), websim.ValidationSite()
}

// PresetLab returns the §3.2 Apache/MySQL lab target with the chosen
// dynamic-content backend, plus its site.
func PresetLab(backend ServerBackend) (ServerConfig, *Site) {
	return websim.LabConfig(backend), websim.LabSite()
}

// PresetQTNP returns the top-50 commercial site's non-production twin.
func PresetQTNP() ServerConfig { return websim.QTNPConfig() }

// PresetQTP returns the production 16-server load-balanced system.
func PresetQTP() ServerConfig { return websim.QTPConfig() }

// PresetQTSite returns the commercial site's content model.
func PresetQTSite(seed int64) *Site { return websim.QTSite(seed) }

// PresetUniv1, PresetUniv2, PresetUniv3 return the §4.2 university servers.
func PresetUniv1() ServerConfig { return websim.Univ1Config() }
func PresetUniv2() ServerConfig { return websim.Univ2Config() }
func PresetUniv3() ServerConfig { return websim.Univ3Config() }

// PresetUniv1Site, PresetUniv2Site, PresetUniv3Site return their content.
func PresetUniv1Site(seed int64) *Site { return websim.Univ1Site(seed) }
func PresetUniv2Site(seed int64) *Site { return websim.Univ2Site(seed) }
func PresetUniv3Site(seed int64) *Site { return websim.Univ3Site(seed) }
