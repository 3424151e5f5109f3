//go:build !race

package maxis

const raceEnabled = false
