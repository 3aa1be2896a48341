//go:build !race

package sim

// raceEnabled reports a build with the race detector (see idleCoroutines).
const raceEnabled = false
