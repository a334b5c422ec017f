//go:build race

package experiments

// raceEnabled reports a -race build, whose shadow memory and slowdown put
// the 20M-instruction heap-ceiling test out of reach.
const raceEnabled = true
