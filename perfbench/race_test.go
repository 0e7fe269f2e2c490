//go:build race

package main

// raceEnabled: the race detector perturbs goroutine scheduling, so runs
// are not reproducible under it even with one OS thread.
const raceEnabled = true
