package websim

import (
	"time"

	"mfc/internal/netsim"
)

// Visit is a fire-and-forget visitor — a background request, a flash-crowd
// or cross-traffic arrival: one stackless process around one Call. Spawn
// it with Env.Spawn or Env.SpawnAfter.
type Visit struct {
	call    *Call
	arrived bool
	// At is the arrival instant and Concurrent the number of requests in
	// flight at the server when the visitor arrived.
	At         time.Duration
	Concurrent int
	onArrive   func()
	onDone     func(*Visit, Response)
}

// NewVisit prepares a visitor for req. onArrive (may be nil) runs when the
// visitor's process starts, just before the request reaches the server;
// onDone (may be nil) runs with the response, in the dispatch that
// completes it.
func (s *Server) NewVisit(tag string, req Request, onArrive func(), onDone func(*Visit, Response)) *Visit {
	return &Visit{call: s.Start(tag, req), onArrive: onArrive, onDone: onDone}
}

// Step implements netsim.Task.
func (v *Visit) Step(p *netsim.Proc) bool {
	if !v.arrived {
		v.arrived = true
		v.At = p.Now()
		v.Concurrent = v.call.s.pending
		if v.onArrive != nil {
			v.onArrive()
		}
	}
	if v.call.Step(p) {
		return true
	}
	resp := v.call.Finish()
	if v.onDone != nil {
		v.onDone(v, resp)
	}
	return false
}
