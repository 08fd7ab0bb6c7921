//go:build !oracle

package main

// goldenAll widens TestGoldenFigures from the figures to every default
// artifact. Tier-1 checks the figures only (about 5 s); `scripts/ci.sh
// oracle` builds with -tags oracle for all 25 files (about 20 s on two
// cores).
const goldenAll = false
