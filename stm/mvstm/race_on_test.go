//go:build race

package mvstm_test

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of its Puts at random and allocation counts mean nothing.
const raceEnabled = true
