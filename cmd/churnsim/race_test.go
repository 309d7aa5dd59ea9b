//go:build race

package main

// raceEnabled reports a race-detector build, whose slowdown voids the
// wall-clock bounds of the scaling smoke.
const raceEnabled = true
