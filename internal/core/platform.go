package core

import "time"

// Clock abstracts time so the coordinator runs identically on virtual
// (simulated) and wall-clock time.
type Clock interface {
	// Now returns elapsed time since an arbitrary epoch (simulation start
	// or process start).
	Now() time.Duration
	// Sleep suspends the coordinator.
	Sleep(d time.Duration)
}

// Client is one MFC participant as the coordinator sees it.
//
// Fire is intentionally fire-and-forget with UDP-like semantics: the paper
// sends control commands over UDP with no retransmit, so a platform may
// drop a command (the coordinator simply sees fewer samples than scheduled,
// exactly as Table 2 reports).
type Client interface {
	// ControlRTT returns the coordinator<->client round-trip time
	// (T_coord_i), measured by the platform.
	ControlRTT() (time.Duration, error)

	// MeasureTarget measures the client's RTT to the target and its
	// unloaded response time for req (§2.2.3). The client keeps that base
	// time for the samples of the requests it fires next. The coordinator
	// invokes it one client at a time, so clients do not disturb one
	// another.
	MeasureTarget(req Request) (targetRTT time.Duration, err error)

	// Fire instructs the client to issue reqs so that the first byte of
	// each HTTP request arrives at the target at the absolute platform
	// time arriveAt. The client times out each request after timeout,
	// recording Err="ERR" and Resp=timeout. Non-blocking.
	Fire(epoch int, arriveAt time.Duration, reqs []Request, timeout time.Duration)

	// Collect returns the samples recorded for epoch, and whether the
	// client responded to the poll at all.
	Collect(epoch int) ([]Sample, bool)
}

// Platform supplies the coordinator with clients and a clock.
type Platform interface {
	Clock() Clock
	// ActiveClients returns the clients that responded to a liveness probe
	// quickly enough to participate (Figure 2: "obtain list of active
	// client machines").
	ActiveClients() ([]Client, error)
}
