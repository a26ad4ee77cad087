//go:build race

package live

// raceEnabled: the race detector multiplies CPU time, so CPU budgets are
// not asserted under it.
const raceEnabled = true
