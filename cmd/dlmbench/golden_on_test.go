//go:build oracle

package main

// goldenAll: see golden_off_test.go.
const goldenAll = true
