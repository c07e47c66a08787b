//go:build race

package experiment

// raceBuild reports a build with the race detector, under which
// overheadGate does not gate.
const raceBuild = true
