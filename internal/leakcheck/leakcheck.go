// Package leakcheck fails a test binary that leaves goroutines behind in the
// packages under test: a read loop of a connection nobody closed, a server
// connection nobody hung up, a worker still waiting for jobs. A package
// opts in from its TestMain:
//
//	func TestMain(m *testing.M) {
//		leakcheck.Main(m, "sealedbottle/internal/client")
//	}
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wait is how long Main polls for goroutines to finish after the tests.
const wait = 5 * time.Second

// Main runs the tests and then, if they passed, polls for up to wait until
// no goroutine has a frame in any of the named packages. If one still does,
// it prints those goroutines' stacks and the binary exits 1.
func Main(m *testing.M, pkgs ...string) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(wait, pkgs...); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines left running after the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine but the caller has a frame in one of the
// named packages, or until within has passed; it returns the stacks of the
// goroutines that still do.
func leaked(within time.Duration, pkgs ...string) string {
	deadline := time.Now().Add(within)
	for {
		buf := make([]byte, 1<<20)
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		var found []string
		for _, g := range stacks[1:] { // the first stack is the caller's
			for _, pkg := range pkgs {
				if strings.Contains(g, pkg+".") {
					found = append(found, g)
					break
				}
			}
		}
		if len(found) == 0 || time.Now().After(deadline) {
			return strings.Join(found, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
