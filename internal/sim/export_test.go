package sim

// RefRun exposes the per-op oracle to this package's external tests.
var RefRun = refRun
