//go:build race

package main

// raceEnabled: the race detector slows the server 10-20x, so open-loop
// traffic at fixed rates is shed; the smoke test then checks names, units
// and the absence of races, not the serving outcome.
const raceEnabled = true
