//go:build race

package flow

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so bounds that rely on buffer reuse do not hold.
const raceEnabled = true
