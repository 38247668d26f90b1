//go:build race

package attr

// raceEnabled reports that the race detector is instrumenting this build;
// its bookkeeping allocates, so allocation-budget tests skip themselves.
const raceEnabled = true
