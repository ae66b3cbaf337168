//go:build !race

package ahe

// raceEnabled: see race_test.go.
const raceEnabled = false
