// Tracing hook: mfc-experiments -trace routes every catalog run's event
// stream into an obs.Tracer, one labeled trace process per mfc.Run, so a
// single experiment can be opened in Perfetto for a virtual-time deep
// dive. Labels are unique across the catalog; the trace is sorted by them.
package experiments

import "mfc"

// traceFactory, when set via EnableTrace, supplies a fresh observer for
// every run the catalog issues; the label names the run's trace process.
var traceFactory func(label string) mfc.Observer

// EnableTrace attaches factory to every subsequent experiment run (nil
// disables). It mutates package state: set it once, before running
// experiments, never concurrently with them.
func EnableTrace(factory func(label string) mfc.Observer) { traceFactory = factory }

// traceOpt is the per-call-site hook: a labeled observer option when
// tracing is enabled, a no-op option otherwise.
func traceOpt(label string) mfc.RunOption {
	if traceFactory == nil {
		return mfc.WithObserver(nil) // addObserver ignores nil: no-op
	}
	return mfc.WithObserver(traceFactory(label))
}
