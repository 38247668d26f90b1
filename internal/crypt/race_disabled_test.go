//go:build !race

package crypt

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
