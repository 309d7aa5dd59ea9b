//go:build !race

package main

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
