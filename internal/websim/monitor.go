package websim

import (
	"time"

	"mfc/internal/netsim"
)

// Monitor is the simulation's equivalent of running `atop` on the target
// (§3.2): it samples CPU, resident memory, disk and network usage at a fixed
// interval so experiments can attribute response-time changes to a specific
// sub-system, exactly as the lab validation does.
type Monitor struct {
	server   *Server
	interval time.Duration
	samples  []Sample
	stopped  bool
	sleeping bool // an interval has been slept: the next step samples

	lastCPU  float64 // core-seconds consumed at last sample
	lastNet  float64 // bytes sent at last sample
	lastDisk time.Duration
}

// Sample is one monitoring record.
type Sample struct {
	At time.Duration
	// CPUUtil is the fraction of total CPU capacity used in the interval.
	CPUUtil float64
	// ResidentBytes is the instantaneous resident memory.
	ResidentBytes int64
	// DiskUtil is the fraction of disk time busy in the interval.
	DiskUtil float64
	// NetBytesPerSec is the outbound transfer rate over the interval.
	NetBytesPerSec float64
	// Pending is the number of in-flight requests at sample time.
	Pending int
	// DBQueue is the number of requests waiting for a DB connection.
	DBQueue int
}

// NewMonitor attaches a sampler to srv with the given interval (default 1s)
// and starts it immediately.
func NewMonitor(env *netsim.Env, srv *Server, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = time.Second
	}
	m := &Monitor{server: srv, interval: interval}
	env.Spawn("monitor/"+srv.cfg.Name, m)
	return m
}

// Step implements netsim.Task: sleep an interval, sample, until stopped. A
// one-second sampler on a goroutine would be the largest source of handoffs
// left in an experiment, more than the coordinator itself.
func (m *Monitor) Step(p *netsim.Proc) bool {
	if m.sleeping {
		m.sample(p.Now())
	}
	if m.stopped {
		return false
	}
	m.sleeping = true
	return p.BeginSleep(m.interval)
}

// Stop ends sampling after at most one more interval. Without a Stop, the
// monitor process keeps the simulation calendar non-empty forever, so
// experiments must stop their monitors before expecting Env.Run(0) to
// return.
func (m *Monitor) Stop() { m.stopped = true }

func (m *Monitor) sample(now time.Duration) {
	s := m.server
	cpuUsed := s.cpu.BytesSent() // core-seconds
	netSent := s.access.BytesSent()
	diskBusy := s.disk.BusyTime()

	ival := m.interval.Seconds()
	samp := Sample{
		At:             now,
		CPUUtil:        (cpuUsed - m.lastCPU) / (ival * s.cpu.Capacity()),
		ResidentBytes:  s.TakePeakResident(),
		DiskUtil:       float64(diskBusy-m.lastDisk) / float64(m.interval) / float64(s.disk.Capacity()),
		NetBytesPerSec: (netSent - m.lastNet) / ival,
		Pending:        s.pending,
		DBQueue:        s.dbPool.QueueLen(),
	}
	m.lastCPU, m.lastNet, m.lastDisk = cpuUsed, netSent, diskBusy
	m.samples = append(m.samples, samp)
}

// Samples returns everything recorded so far.
func (m *Monitor) Samples() []Sample { return m.samples }

// MaxResident returns the largest sampled resident memory.
func (m *Monitor) MaxResident() int64 {
	var max int64
	for _, s := range m.samples {
		if s.ResidentBytes > max {
			max = s.ResidentBytes
		}
	}
	return max
}

// Window aggregates the samples in [from, to) into a single Sample of peak
// values. Peaks, not means: an MFC epoch's burst is much shorter than the
// window, and the paper's atop plots show the burst's utilization, which a
// window average would dilute toward zero.
func (m *Monitor) Window(from, to time.Duration) Sample {
	var agg Sample
	for _, s := range m.samples {
		if s.At < from || s.At >= to {
			continue
		}
		if s.CPUUtil > agg.CPUUtil {
			agg.CPUUtil = s.CPUUtil
		}
		if s.DiskUtil > agg.DiskUtil {
			agg.DiskUtil = s.DiskUtil
		}
		if s.NetBytesPerSec > agg.NetBytesPerSec {
			agg.NetBytesPerSec = s.NetBytesPerSec
		}
		if s.Pending > agg.Pending {
			agg.Pending = s.Pending
		}
		if s.DBQueue > agg.DBQueue {
			agg.DBQueue = s.DBQueue
		}
		if s.ResidentBytes > agg.ResidentBytes {
			agg.ResidentBytes = s.ResidentBytes
		}
	}
	agg.At = from
	return agg
}
