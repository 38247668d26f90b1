package client

import (
	"testing"

	"sealedbottle/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running
// connection code behind.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "sealedbottle/internal/broker/transport", "sealedbottle/internal/client")
}
