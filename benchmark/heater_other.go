//go:build !linux

package main

// startHeaters is a no-op where the idle scheduling class does not
// exist; see heater_linux.go.
func startHeaters() (stop func()) { return func() {} }

// heaterMain is never reached off Linux.
func heaterMain(int) {}
