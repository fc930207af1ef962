package websim

import "time"

// SyntheticModel defines the validation server of §3.1: the average increase
// in response time per incoming request as a function of the number of
// simultaneous requests pending at the server. Models must be
// non-decreasing in the pending count (the paper's synthetic functions are).
type SyntheticModel interface {
	// Delay returns the response-time increase for a request arriving when
	// `pending` requests (including this one) are in flight.
	Delay(pending int) time.Duration
	// Name labels the model in reports.
	Name() string
}

// LinearModel increases delay by Slope per pending request:
// delay = Slope * (pending-1).
type LinearModel struct{ Slope time.Duration }

// Delay implements SyntheticModel.
func (m LinearModel) Delay(pending int) time.Duration {
	if pending <= 1 {
		return 0
	}
	return time.Duration(pending-1) * m.Slope
}

// Name implements SyntheticModel.
func (m LinearModel) Name() string { return "linear" }

// ExponentialModel doubles the delay every Doubling pending requests:
// delay = Unit * (2^((pending-1)/Doubling) - 1).
type ExponentialModel struct {
	Unit     time.Duration
	Doubling float64
}

// Delay implements SyntheticModel.
func (m ExponentialModel) Delay(pending int) time.Duration {
	if pending <= 1 {
		return 0
	}
	d := m.Doubling
	if d <= 0 {
		d = 10
	}
	x := float64(pending-1) / d
	mult := 1.0
	for i := 0; i < int(x); i++ {
		mult *= 2
	}
	frac := x - float64(int(x))
	mult *= 1 + frac // linear interpolation between powers of two
	return time.Duration(float64(m.Unit) * (mult - 1))
}

// Name implements SyntheticModel.
func (m ExponentialModel) Name() string { return "exponential" }

// StepModel is flat until Knee pending requests, then jumps to High.
// It models buffer-exhaustion style cliffs (§3.3).
type StepModel struct {
	Knee int
	High time.Duration
}

// Delay implements SyntheticModel.
func (m StepModel) Delay(pending int) time.Duration {
	if pending <= m.Knee {
		return 0
	}
	return m.High
}

// Name implements SyntheticModel.
func (m StepModel) Name() string { return "step" }
