package wal

import (
	"testing"

	"sealedbottle/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running
// package code behind.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "sealedbottle/internal/broker/wal")
}
