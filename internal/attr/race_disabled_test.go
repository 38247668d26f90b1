//go:build !race

package attr

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
