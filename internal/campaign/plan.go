// Package campaign is the durable measurement-campaign engine: it plans a
// band × stage × scenario × site-count matrix of single-site MFC
// measurements (a §5 population study at arbitrary scale, optionally swept
// across scenario/chaos environments), shards the matrix into
// deterministic per-site jobs, executes the jobs on the process-wide
// runner pool, streams every completed site's result to an append-only
// sharded JSONL store, and resumes killed campaigns by skipping completed
// jobs.
//
// Determinism contract: job j of a plan addresses cell j/Sites and site
// j%Sites, the site is generated by population.SampleAt from (campaign
// seed, band, site index) alone, and its measurement seed comes with it.
// No job depends on any other job, on scheduling, or on how many times the
// campaign was interrupted — so a resumed campaign's aggregate report is
// byte-identical to an uninterrupted run's (campaign_test.go proves this).
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mfc/internal/core"
	"mfc/internal/population"
	"mfc/internal/scenario"
)

// Cell is one band × scenario × stage combination in the campaign matrix,
// stored by name so plan.json stays meaningful to humans and stable across
// enum renumbering. Scenario "" is the clean environment (pre-scenario
// plans unmarshal unchanged).
type Cell struct {
	Band     string `json:"band"`
	Stage    string `json:"stage"`
	Scenario string `json:"scenario,omitempty"`
}

// Label renders the cell for reports and progress lines.
func (c Cell) Label() string {
	if c.Scenario == "" {
		return c.Band + "/" + c.Stage
	}
	return c.Band + "/" + c.Stage + "/" + c.Scenario
}

// Plan is a campaign's immutable description, persisted as plan.json in
// the campaign directory before the first job runs. Every job is derived
// from the plan alone.
type Plan struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Sites int    `json:"sites_per_cell"`
	Cells []Cell `json:"cells"`

	// Measurement parameters (§5 defaults; see DefaultPlan).
	ThresholdNs int64 `json:"threshold_ns"`
	Step        int   `json:"step"`
	MaxCrowd    int   `json:"max_crowd"`
	MinClients  int   `json:"min_clients"`
	Clients     int   `json:"clients"` // simulated wide-area clients per site

	// ShardJobs is how many consecutive jobs share one result file; it is
	// also the report's streaming window, so memory stays O(ShardJobs).
	ShardJobs int `json:"shard_jobs"`

	Version int `json:"version"`
}

// DefaultPlan returns a plan with the paper's §5 measurement parameters
// (θ=100ms, step 5, ramp to 50, 60 simulated PlanetLab clients) and no
// cells; callers fill Name, Seed, Sites and Cells.
func DefaultPlan() Plan {
	return Plan{
		ThresholdNs: int64(100 * time.Millisecond),
		Step:        5,
		MaxCrowd:    50,
		MinClients:  50,
		Clients:     60,
		ShardJobs:   512,
		Version:     1,
	}
}

// NewPlan assembles a validated plan over the full band × stage ×
// scenario matrix. An empty scenarios list means every cell runs clean; a
// non-empty list multiplies the matrix (scenario "" or "clean" inside it
// is the clean cell). Validation happens here, at plan creation: a typo'd
// band, stage or scenario name fails immediately with the list of known
// names instead of surfacing mid-campaign.
func NewPlan(name string, bands []population.Band, stages []core.Stage, scenarios []string, sites int, seed int64) (*Plan, error) {
	p := DefaultPlan()
	p.Name, p.Seed, p.Sites = name, seed, sites
	if len(scenarios) == 0 {
		scenarios = []string{""}
	}
	for _, b := range bands {
		for _, s := range stages {
			for _, sc := range scenarios {
				p.Cells = append(p.Cells, Cell{Band: b.String(), Stage: s.String(), Scenario: sc})
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ParseStage maps a core.Stage String() name back to the stage. Unknown
// names fail with the list of known ones.
func ParseStage(s string) (core.Stage, error) {
	known := make([]string, len(core.Stages))
	for i, st := range core.Stages {
		if st.String() == s {
			return st, nil
		}
		known[i] = st.String()
	}
	return 0, fmt.Errorf("campaign: unknown stage %q (known: %s)", s, strings.Join(known, ", "))
}

// Validate checks the plan is runnable: resolvable cells, positive counts.
func (p *Plan) Validate() error {
	if p.Sites <= 0 {
		return fmt.Errorf("campaign: plan needs sites_per_cell > 0, got %d", p.Sites)
	}
	if len(p.Cells) == 0 {
		return fmt.Errorf("campaign: plan has no cells")
	}
	if p.ShardJobs <= 0 {
		return fmt.Errorf("campaign: shard_jobs must be positive, got %d", p.ShardJobs)
	}
	for _, c := range p.Cells {
		if _, err := population.ParseBand(c.Band); err != nil {
			return err
		}
		if _, err := ParseStage(c.Stage); err != nil {
			return err
		}
		if c.Scenario != "" {
			if err := checkScenario(c.Scenario); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkScenario resolves a cell's scenario and refuses an active diurnal
// one: it modulates background traffic, which campaign jobs do not run.
func checkScenario(name string) error {
	if sc, err := scenario.Parse(name); err != nil || !sc.DiurnalActive() {
		return err
	}
	return fmt.Errorf("campaign: scenario %q modulates background traffic, which campaign jobs do not run", name)
}

// Scenarios lists the registered scenario names a plan accepts.
func Scenarios() []string {
	return slices.DeleteFunc(scenario.Names(), func(name string) bool { return checkScenario(name) != nil })
}

// Jobs returns the total number of per-site jobs.
func (p *Plan) Jobs() int { return len(p.Cells) * p.Sites }

// Shards returns the number of result-store shard files.
func (p *Plan) Shards() int { return (p.Jobs() + p.ShardJobs - 1) / p.ShardJobs }

// CellOf returns the cell index job j belongs to.
func (p *Plan) CellOf(j int) int { return j / p.Sites }

// SiteOf returns the site index (within its cell) of job j.
func (p *Plan) SiteOf(j int) int { return j % p.Sites }

// ShardOf returns the result shard job j is stored in.
func (p *Plan) ShardOf(j int) int { return j / p.ShardJobs }

// ShardRange returns shard k's half-open job range [lo, hi).
func (p *Plan) ShardRange(k int) (lo, hi int) {
	lo = k * p.ShardJobs
	return lo, min(lo+p.ShardJobs, p.Jobs())
}

// Threshold returns θ as a duration.
func (p *Plan) Threshold() time.Duration { return time.Duration(p.ThresholdNs) }

// Same reports whether two plans are identical in every field — the
// precondition for merging result stores: records are only comparable
// when every job was derived from the same plan.
func (p *Plan) Same(o *Plan) bool {
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(o)
	return string(a) == string(b)
}

// planPath is the plan's location inside a campaign directory.
func planPath(dir string) string { return filepath.Join(dir, "plan.json") }

// Save writes the plan into dir (creating it), refusing to overwrite a
// different existing plan: the plan is the campaign's identity, and
// silently replacing it would orphan the stored results.
func (p *Plan) Save(dir string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if existing, err := LoadPlan(dir); err == nil {
		if existing.Same(p) {
			return nil // idempotent re-plan
		}
		return fmt.Errorf("campaign: %s already holds a different plan %q", dir, existing.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(planPath(dir), append(data, '\n'))
}

// LoadPlan reads and validates the plan stored in dir.
func LoadPlan(dir string) (*Plan, error) {
	data, err := os.ReadFile(planPath(dir))
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("campaign: corrupt plan in %s: %w", dir, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// writeFileAtomic writes via a temp file + rename so a kill mid-write can
// never leave a half-written plan or manifest behind. The temp file is
// this call's own: every worker that finishes a campaign writes the
// manifest, and finishers sharing one temp path would truncate each
// other's file mid-rename.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp.*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // gone already once the rename has happened
	_, err = f.Write(data)
	// CreateTemp's 0600 would hide the file from a shared directory's other users.
	if err := errors.Join(err, f.Chmod(0o644), f.Close()); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
