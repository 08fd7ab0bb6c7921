//go:build !oracle

package scenario

// oracleN is the population TestConvergenceOracle runs at. Tier-1 uses
// the smallest size of results/adversarial.txt, where each scenario takes
// about two seconds and the same bounds hold (post-disturbance error 3.5 %
// after the partition, 0.4 % after the flash crowd); `scripts/ci.sh
// oracle` builds with -tags oracle for the 100k-peer runs.
const oracleN = 10_000
