//go:build !race

package transport

// raceEnabled: see race_test.go.
const raceEnabled = false
