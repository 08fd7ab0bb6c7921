//go:build oracle

package scenario

// oracleN: see oracle_off_test.go. At this size the two scenarios take
// about 80 s together.
const oracleN = 100_000
