package campaign

import (
	"fmt"
	"sort"
	"sync"

	"mfc/internal/clock"
	"mfc/internal/obs"
)

// Fleet capacity bounds. Ingest accepts arbitrary span batches — from
// trusted worker loops and from the network via POST /api/spans — so
// every structure it grows is hard-capped: input past a cap is counted,
// never stored. Bounded() audits the caps and the fuzzer asserts it.
const (
	maxFleetWorkers  = 256
	maxFleetActive   = 4096
	fleetDurRingCap  = 8192
	maxFleetTimeline = 64
	maxFleetNameLen  = 128
)

// DefaultStragglerK is the default straggler threshold multiplier: an
// active shard is flagged once it has run longer than k× the median
// completed-shard duration.
const DefaultStragglerK = 4.0

// Fleet aggregates wall-clock spans into the live fleet picture: who is
// busy on what, how long shards and jobs really take, and which active
// shards have outlived k× the median — the stragglers. It is the single
// source /fleet.json, the live page's fleet section and the
// mfc_campaign_straggler_shards gauge all read, so they cannot drift.
//
// Straggler clocks deliberately survive worker death: an active shard is
// keyed by its *earliest* claim since the shard last completed, so a
// takeover re-claim does not reset the age — the shard stays flagged
// until some worker actually finishes it.
type Fleet struct {
	k   float64
	clk clock.Clock

	mu       sync.Mutex
	workers  map[string]*fleetWorker
	active   map[int]fleetClaim
	shardDur durRing // sealed shards only
	jobDur   durRing
	ingested uint64 // spans accepted
	skipped  uint64 // spans dropped at a cap
}

type fleetWorker struct {
	name     string
	shards   int   // shard spans completed
	sealed   int   // of those, sealed
	jobs     int   // job spans completed
	busyUs   int64 // total shard-span duration
	lastSeen int64 // max span end observed
	timeline []FleetSeg
}

type fleetClaim struct {
	worker string
	since  int64
}

// FleetSeg is one timeline segment of a worker: a shard occupancy or an
// idle wait, most recent maxFleetTimeline kept.
type FleetSeg struct {
	Shard   int   `json:"shard"` // -1 for idle segments
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
	Partial bool  `json:"partial,omitempty"`
}

// durRing is a fixed-capacity ring of duration samples; percentiles are
// computed over a sorted copy at snapshot time.
type durRing struct {
	buf   [fleetDurRingCap]int64
	n     int // live samples (≤ cap)
	next  int
	total uint64 // samples ever observed
}

func (r *durRing) add(us int64) {
	r.buf[r.next] = us
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
}

// sortedCopy returns the live samples ascending (nil when empty).
func (r *durRing) sortedCopy() []int64 {
	if r.n == 0 {
		return nil
	}
	out := make([]int64, r.n)
	copy(out, r.buf[:r.n])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pct picks the p'th percentile (0..1) from an ascending sample slice.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// NewFleet builds an empty aggregator. k <= 0 selects DefaultStragglerK.
func NewFleet(k float64) *Fleet {
	if k <= 0 {
		k = DefaultStragglerK
	}
	return &Fleet{
		k:       k,
		clk:     clock.Real,
		workers: make(map[string]*fleetWorker),
		active:  make(map[int]fleetClaim),
	}
}

// Ingest folds a span batch into the fleet state. Order within a batch
// does not matter beyond the usual last-writer rules; hostile input (via
// /api/spans) is clamped, capped or skipped, never trusted to grow state.
func (f *Fleet) Ingest(spans []obs.Span) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range spans {
		sp := &spans[i]
		name := sp.Worker
		if len(name) > maxFleetNameLen {
			name = name[:maxFleetNameLen]
		}
		w, ok := f.workers[name]
		if !ok {
			if len(f.workers) >= maxFleetWorkers {
				f.skipped++
				continue
			}
			w = &fleetWorker{name: name}
			f.workers[name] = w
		}
		f.ingested++
		if sp.End > w.lastSeen {
			w.lastSeen = sp.End
		}
		switch sp.Cat {
		case "claim":
			if sp.Shard < 0 {
				continue
			}
			if _, held := f.active[sp.Shard]; held {
				continue // earliest claim wins: takeovers keep the old clock
			}
			if len(f.active) >= maxFleetActive {
				f.skipped++
				continue
			}
			f.active[sp.Shard] = fleetClaim{worker: name, since: sp.Start}
		case "shard":
			w.appendSeg(FleetSeg{Shard: sp.Shard, StartUs: sp.Start, EndUs: sp.End, Partial: sp.Partial})
			if sp.Partial {
				continue // interrupted mid-shard: the shard is still open
			}
			w.shards++
			w.busyUs += sp.End - sp.Start
			delete(f.active, sp.Shard)
			if sp.Attr("sealed") == "true" {
				w.sealed++
				f.shardDur.add(sp.End - sp.Start)
			}
		case "job":
			w.jobs++
			if !sp.Partial {
				f.jobDur.add(sp.End - sp.Start)
			}
		case "idle":
			w.appendSeg(FleetSeg{Shard: -1, StartUs: sp.Start, EndUs: sp.End})
		}
	}
}

func (w *fleetWorker) appendSeg(seg FleetSeg) {
	w.timeline = append(w.timeline, seg)
	if len(w.timeline) > maxFleetTimeline {
		copy(w.timeline, w.timeline[len(w.timeline)-maxFleetTimeline:])
		w.timeline = w.timeline[:maxFleetTimeline]
	}
}

// Stragglers counts active shards older than k× the median completed
// shard duration — the value mfc_campaign_straggler_shards exports, read
// off the same Snapshot /fleet.json serves.
func (f *Fleet) Stragglers() int { return f.Snapshot().Stragglers }

// FleetWorker is one worker's row of /fleet.json.
type FleetWorker struct {
	Name     string     `json:"name"`
	Shards   int        `json:"shards_done"`
	Sealed   int        `json:"shards_sealed"`
	Jobs     int        `json:"jobs_done"`
	BusyUs   int64      `json:"busy_us"`
	LastUs   int64      `json:"last_seen_us"`
	Timeline []FleetSeg `json:"timeline,omitempty"`
}

// FleetActive is one currently-claimed shard.
type FleetActive struct {
	Shard     int    `json:"shard"`
	Worker    string `json:"worker"`
	SinceUs   int64  `json:"since_us"`
	AgeUs     int64  `json:"age_us"`
	Straggler bool   `json:"straggler"`
}

// FleetDoc is the /fleet.json body.
type FleetDoc struct {
	Workers     []FleetWorker `json:"workers"`
	Active      []FleetActive `json:"active"`
	Stragglers  int           `json:"stragglers"`
	StragglerK  float64       `json:"straggler_k"`
	ThresholdUs int64         `json:"straggler_threshold_us,omitempty"`
	ShardP50Us  int64         `json:"shard_p50_us"`
	ShardP99Us  int64         `json:"shard_p99_us"`
	ShardCount  uint64        `json:"shard_samples"`
	JobP50Us    int64         `json:"job_p50_us"`
	JobP99Us    int64         `json:"job_p99_us"`
	JobCount    uint64        `json:"job_samples"`
	Ingested    uint64        `json:"spans_ingested"`
	Skipped     uint64        `json:"spans_skipped,omitempty"`
}

// Snapshot renders the current fleet picture, workers sorted by name and
// active shards by shard index. It is the one place ages are taken and
// stragglers flagged; Stragglers() and the exported gauges read it.
func (f *Fleet) Snapshot() FleetDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	doc := FleetDoc{
		StragglerK: f.k,
		Ingested:   f.ingested,
		Skipped:    f.skipped,
		ShardCount: f.shardDur.total,
		JobCount:   f.jobDur.total,
	}
	if s := f.shardDur.sortedCopy(); s != nil {
		doc.ShardP50Us, doc.ShardP99Us = pct(s, 0.5), pct(s, 0.99)
		if len(s) >= 3 { // fewer completed shards are not yet a signal
			doc.ThresholdUs = int64(f.k * float64(doc.ShardP50Us))
		}
	}
	if s := f.jobDur.sortedCopy(); s != nil {
		doc.JobP50Us, doc.JobP99Us = pct(s, 0.5), pct(s, 0.99)
	}
	for _, w := range f.workers {
		doc.Workers = append(doc.Workers, FleetWorker{
			Name: w.name, Shards: w.shards, Sealed: w.sealed, Jobs: w.jobs,
			BusyUs: w.busyUs, LastUs: w.lastSeen,
			Timeline: append([]FleetSeg(nil), w.timeline...),
		})
	}
	sort.Slice(doc.Workers, func(i, j int) bool { return doc.Workers[i].Name < doc.Workers[j].Name })

	now := f.clk.Now().UnixMicro()
	for shard, c := range f.active {
		age := now - c.since
		a := FleetActive{Shard: shard, Worker: c.worker, SinceUs: c.since, AgeUs: age}
		if doc.ThresholdUs > 0 && age > doc.ThresholdUs {
			a.Straggler = true
			doc.Stragglers++
		}
		doc.Active = append(doc.Active, a)
	}
	sort.Slice(doc.Active, func(i, j int) bool { return doc.Active[i].Shard < doc.Active[j].Shard })
	return doc
}

// Bounded verifies every capacity invariant; the span-ingest fuzzer calls
// it after each hostile batch ("never corrupt the ring").
func (f *Fleet) Bounded() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.workers); n > maxFleetWorkers {
		return fmt.Errorf("fleet: %d workers exceeds cap %d", n, maxFleetWorkers)
	}
	if n := len(f.active); n > maxFleetActive {
		return fmt.Errorf("fleet: %d active shards exceeds cap %d", n, maxFleetActive)
	}
	if f.shardDur.n > fleetDurRingCap || f.jobDur.n > fleetDurRingCap {
		return fmt.Errorf("fleet: duration ring overflow (%d/%d)", f.shardDur.n, f.jobDur.n)
	}
	for _, w := range f.workers {
		if len(w.name) > maxFleetNameLen {
			return fmt.Errorf("fleet: worker name %d bytes exceeds cap %d", len(w.name), maxFleetNameLen)
		}
		if len(w.timeline) > maxFleetTimeline {
			return fmt.Errorf("fleet: worker %q timeline %d exceeds cap %d", w.name, len(w.timeline), maxFleetTimeline)
		}
	}
	return nil
}

// Register exports the fleet on a registry: the straggler gauge plus the
// worker count, both computed from the same state the JSON view reads.
func (f *Fleet) Register(reg *obs.Registry) {
	reg.GaugeFunc("mfc_campaign_straggler_shards",
		"Active shards running longer than k-times the median completed shard duration.",
		func() float64 { return float64(f.Stragglers()) })
	reg.GaugeFunc("mfc_campaign_fleet_workers",
		"Workers that have reported at least one span.",
		func() float64 { return float64(len(f.Snapshot().Workers)) })
}
