//go:build !race

package service

// raceEnabled: see race_test.go.
const raceEnabled = false
