//go:build !race

package database

const raceEnabled = false
