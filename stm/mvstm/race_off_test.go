//go:build !race

package mvstm_test

const raceEnabled = false
