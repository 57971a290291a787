package sim

// RefRun exposes the per-op oracle to this package's external tests.
var RefRun = refRun

// SpyAhead wraps app so that *ahead counts its NextBatch calls drawn on a
// Scheduler's producer.
func SpyAhead(app App, ahead *int) App { return aheadSpy{App: app, ahead: ahead} }
