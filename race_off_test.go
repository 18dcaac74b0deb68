//go:build !race

package wfsql

const raceEnabled = false
