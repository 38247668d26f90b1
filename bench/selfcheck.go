package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the benchmark's contract at the root of the repository;
// the self-check takes the workloads, the metrics and their bounds from it.
const benchmarkFile = "BENCHMARK.json"

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheckRounds is how many runs each of the two sets gets per workload. On
// the shared sandbox a median of three still moved by a tenth in a noisy
// hour; a median of five did not.
const selfCheckRounds = 5

// selfCheck runs every workload (or only the one named) as two alternating
// sets of runs of this same binary (A, B, A, B, ...), and compares the sets'
// medians per end-to-end metric. Two sets of one program differ by noise
// alone, so a gap above half a metric's bound means the benchmark could not
// tell a regression of that size from nothing.
func selfCheck(seed int64, seconds float64, only string) error {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return fmt.Errorf("self-check runs from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	fmt.Printf("self-check: seed %d, %g s, %d runs per set\n", seed, seconds, selfCheckRounds)
	fmt.Printf("| workload | metric | unit | median A | median B | gap | limit |\n|---|---|---|---|---|---|---|\n")
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfCheckRounds; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line: %w", w.Name, i, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d", w.Name, i, res.Correct, res.Failed)
			}
			fmt.Fprintf(os.Stderr, "%s run %d (set %c):", w.Name, i, 'A'+i%2)
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				sets[i%2][m.Name] = append(sets[i%2][m.Name], v)
				fmt.Fprintf(os.Stderr, " %s %.4g", m.Name, v)
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, m := range spec.EndToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			gap := math.Abs(a-b) / a
			mark := ""
			if gap > m.Bound/2 {
				mark = " FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.2f%% | %.1f%%%s |\n", w.Name, m.Name, m.Unit, a, b, 100*gap, 100*m.Bound/2, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metrics differ between two sets of the same code by more than half their bound", failed)
	}
	fmt.Println("self-check passed")
	return nil
}
