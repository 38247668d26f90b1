package cluster

import (
	"testing"

	"sealedbottle/internal/leakcheck"
)

// TestMain fails the package when a scenario or a harness leaves a ring, a
// courier or a server connection running.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "sealedbottle/internal/broker/transport", "sealedbottle/internal/client")
}
