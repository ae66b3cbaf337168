//go:build race

package transport

// raceEnabled reports that the test binary was built with -race, whose
// runtime instrumentation allocates on its own; the allocation pin
// skips rather than loosens.
const raceEnabled = true
