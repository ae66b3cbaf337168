//go:build race

package service

// raceEnabled reports that the test binary was built with -race, whose
// runtime instrumentation allocates on its own; the allocation pin
// skips rather than loosens.
const raceEnabled = true
