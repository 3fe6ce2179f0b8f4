//go:build race

package mempool

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of its Puts at random, so a Put→Get cannot be asserted to
// return the same object.
const raceEnabled = true
