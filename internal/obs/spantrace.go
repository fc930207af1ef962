package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// WriteFleetTrace merges completed spans — every worker's spans.jsonl,
// the control plane's collected batches, or a Tracer's virtual-time runs
// — into one Chrome trace-event JSON document. The layout mirrors how
// operators think about a fleet: one trace pid per worker (named after
// it), tid 1 is the worker's own track (shard -1 spans: the work root,
// idle backoffs), and shard k gets tid k+2 so each shard's claims, jobs
// and heartbeats line up on a dedicated row.
//
// Output is deterministic for a given span set regardless of input order:
// workers are numbered in sorted-name order and spans sorted by
// (worker, start, id, name), so the golden test — and any two merges of
// the same fleet — produce byte-identical documents.
func WriteFleetTrace(w io.Writer, spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Name < b.Name
	})

	// Rebase timestamps to the earliest span so the trace starts near 0
	// (Perfetto handles absolute unix micros poorly in the minimap).
	var base int64
	for i := range sorted {
		if i == 0 || sorted[i].Start < base {
			base = sorted[i].Start
		}
	}

	pids := map[string]int{}
	events := []traceEvent{}
	shardSeen := map[[2]int]bool{} // (pid, tid) pairs already named
	for i := range sorted {
		sp := &sorted[i]
		pid, ok := pids[sp.Worker]
		if !ok {
			pid = len(pids) + 1
			pids[sp.Worker] = pid
			name := sp.Worker
			if name == "" {
				name = "(unnamed worker)"
			}
			events = append(events, metaEvent(pid, 0, "process_name", name))
		}
		tid := fleetTid(sp.Shard)
		if key := [2]int{pid, tid}; !shardSeen[key] {
			shardSeen[key] = true
			tname := "worker"
			if sp.Shard >= 0 {
				tname = shardTrackName(sp.Shard)
			}
			events = append(events, metaEvent(pid, tid, "thread_name", tname))
		}

		args := map[string]any{"span_id": sp.ID}
		if sp.Trace != "" {
			args["trace"] = sp.Trace
		}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Partial {
			args["partial"] = true
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Val
		}

		ev := traceEvent{
			Name: sp.Name, Cat: sp.Cat,
			Ts: sp.Start - base, Pid: pid, Tid: tid, Args: args,
		}
		if sp.End == sp.Start {
			ev.Ph, ev.S = "i", "t"
		} else {
			ev.Ph = "X"
			ev.Dur = sp.End - sp.Start
			if ev.Dur < 1 {
				ev.Dur = 1
			}
		}
		events = append(events, ev)
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// traceEvent is one entry of the Trace Event Format's JSON array form.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"` // X complete, i instant, M metadata
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: t = thread
	Args map[string]any `json:"args,omitempty"`
}

func metaEvent(pid, tid int, name, value string) traceEvent {
	return traceEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value},
	}
}

// fleetTid maps a span's shard to its trace thread: tid 1 is the
// worker-level track, shard k lives on tid k+2. Negative shards other
// than -1 (hostile input via /api/spans) collapse onto the worker track.
func fleetTid(shard int) int {
	if shard < 0 {
		return 1
	}
	return shard + 2
}

func shardTrackName(shard int) string {
	return "shard " + strconv.Itoa(shard)
}
