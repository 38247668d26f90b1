// Command friendbench is the repository's benchmark: it drives the real
// stack through the public sealedbottle SDK — durable racks behind framed
// servers on loopback TCP, couriers, the ring, sweepers — on four workloads,
// checks every result, and prints eight end-to-end metrics or, with -trace 1,
// the per-layer metrics of a traced run. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: friend-1rack, friend-ring, submit-storm or sweep-churn")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 10, "measured time in seconds")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload (or the one given) as two alternating sets and compare their medians")
	)
	flag.Parse()
	// The sandbox has two cores; pinning keeps a larger host from changing
	// the worker pool and the GC's parallelism.
	runtime.GOMAXPROCS(2)

	// Rack data and the span file live beside the build, inside the checkout.
	dir, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fatal(err)
	}
	if *selfcheck {
		if err := selfCheck(*seed, *seconds, *name); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("seconds must be positive"))
	}
	res, err := runWorkload(w, options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, workdir: dir})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "friendbench:", err)
	os.Exit(2)
}
