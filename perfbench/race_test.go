//go:build race

package main

// raceEnabled is set under the race detector, whose instrumentation and
// randomized sync.Pool change allocation counts from run to run.
const raceEnabled = true
