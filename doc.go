// Package mfc is a Go implementation of Mini-Flash Crowds (MFC), the
// wide-area web-server profiling technique of Ramamurthy, Sekar, Akella,
// Krishnamurthy and Shaikh, "Remote Profiling of Resource Constraints of
// Web Servers Using Mini-Flash Crowds" (USENIX ATC 2008).
//
// An MFC experiment has a coordinator direct an increasing number of
// distributed clients to issue synchronized HTTP requests of a specific
// category — HEAD of the base page (Base), dynamic responses under 15 KB
// (Small Query), or the same static object of at least 100 KB (Large
// Object) — at a target server. A small but persistent rise in a quantile
// of the normalized response time, confirmed by a check phase, reveals the
// crowd size at which a specific server sub-system (request handling,
// back-end data processing, or access bandwidth) becomes constrained.
//
// # The Target/Run contract
//
// One entry point drives every deployment the paper describes:
//
//	run, err := mfc.Run(ctx, target, cfg, opts...)
//
// where target is any Target:
//
//   - SimTarget: a configurable discrete-event model of a web installation
//     (internal/websim) with simulated PlanetLab-like clients. Virtual
//     time, deterministic in (target, Config) — the substrate for
//     reproducing the paper's figures and tables (see EXPERIMENTS.md).
//   - LabTarget: a real instrumented HTTP server started in this process
//     and profiled over loopback by a goroutine crowd (§3's lab setting).
//   - LiveTarget: any reachable HTTP server; the crowd is either
//     in-process goroutines or remote mfc-client agents driven over the
//     paper's UDP control protocol (§4's wide-area deployment).
//
// Run honors ctx at epoch boundaries: cancel it and the in-progress stage
// returns tagged VerdictAborted, with the partial Result still delivered.
// Progress streams through typed events (StageStarted, EpochCompleted,
// MeasurersReserved, CheckPhaseEntered, and a terminal ExperimentFinished
// exactly once per run) attached with WithObserver; WithStage restricts a
// run to a single request category.
//
// Start with examples/quickstart, or:
//
//	cfg := mfc.DefaultConfig()
//	run, err := mfc.Run(ctx, mfc.SimTarget{
//	    Server: mfc.PresetQTNP(), Site: mfc.PresetQTSite(1), Clients: 65,
//	}, cfg)
//	fmt.Print(mfc.Assess(run.Result))
//
// Population-scale §5 studies run through cmd/mfc-campaign: plan a band ×
// stage × sites matrix once, then run it with one process or many (`run`,
// `resume` and `work` are the same worker engine, one per process or host
// — workers claim disjoint result shards via crash-safe leases and
// survive kill -9 of any peer), and aggregate with `report` over one or
// many result stores or
// `merge` into a consolidated one; the report is byte-identical however
// the jobs were split, killed or resumed. Fleets without a shared
// filesystem run `serve`, an HTTP control plane owning the plan and the
// store, and join it from anywhere with `work -join ADDR`: workers
// receive fenced work grants (a per-shard grant counter travels as
// the fence token), heartbeat them, and upload records as they
// complete; a worker silent past the TTL has its shard re-granted and
// its late requests refused with 410 Gone. `analyze` is the deep read
// side: it streams the stores' full result payloads — one shard of
// decoded records in memory at a time — into per-cell latency-quantile
// curves, response-time knees, error-class rollups and
// baseline-vs-scenario verdict confusion matrices, as text with figures,
// canonical JSON (`-json`, byte-identical however the store was
// produced), and live as /analyze.json on every -metrics and serve
// listener. See
// DESIGN.md "The campaign engine", "Distributed campaigns", "Networked
// campaigns" and "Campaign analytics".
//
// # Observability
//
// Every run's event stream can be observed without changing it.
// `mfc-campaign run|resume|work -metrics ADDR` serves Prometheus text
// metrics on /metrics, a JSON progress snapshot (per-band done/pending,
// session rate, ETA, shard lease churn, whole-store completion) on
// /progress, the analytics document on /analyze.json, the fleet view on
// /fleet.json, Go profiling on /debug/pprof/ and one live HTML page over
// them on /; session counters render the same tracker state as the
// terminal progress line and every whole-store number comes from one
// store scan, so the surfaces cannot disagree (`-metrics-hold` keeps the server
// scrapable after the campaign; POST /quit releases it). `mfc-sim -trace
// out.json` and `mfc-experiments -trace out.json` write Chrome
// trace-event JSON in virtual time — stage and epoch spans, fault and
// check-phase instants — loadable in Perfetto or chrome://tracing. See
// DESIGN.md "Observability".
package mfc
