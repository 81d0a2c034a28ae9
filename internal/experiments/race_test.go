//go:build race

package experiments

// raceEnabled is set under the race detector, where TestAccuracy scores
// only the canonical world.
const raceEnabled = true
