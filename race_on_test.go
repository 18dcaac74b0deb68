//go:build race

package wfsql

// raceEnabled: the allocation gates skip under the race detector, whose
// instrumentation allocates on its own.
const raceEnabled = true
