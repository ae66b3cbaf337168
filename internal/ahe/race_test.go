//go:build race

package ahe

// raceEnabled reports that the test binary was built with -race, whose
// runtime instrumentation allocates on its own; the allocation pins
// skip rather than loosen.
const raceEnabled = true
