//go:build !race

package scenario

// raceEnabled reports whether the race detector is compiled in; the
// convergence oracle skips under it (it would multiply the test's wall
// time several-fold without exercising any new interleaving — the
// dedicated CI smoke lane runs the small scenarios under -race instead).
const raceEnabled = false
