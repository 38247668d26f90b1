package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of the values by linear
// interpolation between closest ranks.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	values = append([]float64(nil), values...)
	sort.Float64s(values)
	pos := q * float64(len(values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return values[lo] + (values[hi]-values[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func sum(values []float64) float64 {
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total
}

func mean(values []float64) float64 { return ratio(sum(values), float64(len(values))) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the CPU time the runtime has spent on garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// calibRefMS is the calibration spin's duration on the reference container
// when nothing disturbs it. Timings are reported as they would read on a host
// where the spin takes exactly this long.
const calibRefMS = 7.0

// spinState is the calibration spin's working set, allocated once so that
// the spin itself allocates nothing and the collector's state cannot move it.
type spinState struct {
	block    [16 << 10]byte
	src, dst [256 << 10]byte
	table    map[uint32]uint32
}

var spinStates = func() (s [numClients]*spinState) {
	for i := range s {
		s[i] = &spinState{table: make(map[uint32]uint32, 4096)}
		for k := uint32(0); k < 4096; k++ {
			s[i].table[k] = k
		}
	}
	return s
}()

// spin runs a fixed piece of work — hashing, copying, map updates — on as
// many goroutines as the workload has clients and returns their mean duration
// in milliseconds. The shared sandbox's speed drifts by a fifth over minutes
// with the same code and inputs (allocation counts identical); the spins
// around every segment follow that drift, and a phase's three timings are
// scaled by their median, see phase.host. Per run the spin explains the
// drift well (log-log slope -0.84 over twelve runs), per segment it does not,
// so the scale is one per phase.
func spin() float64 {
	var wg sync.WaitGroup
	var took [numClients]time.Duration
	for i, s := range spinStates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for round := uint32(0); round < 200; round++ {
				sum := sha256.Sum256(s.block[:])
				copy(s.block[:], sum[:])
				copy(s.dst[:], s.src[:])
				for k := uint32(0); k < 2048; k++ {
					s.table[(k*2654435761+round)%4096] += k
				}
			}
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	total := 0.0
	for _, d := range took {
		total += float64(d) / 1e6
	}
	return total / numClients
}

// counters is a reading of everything a phase reports as a delta.
type counters struct {
	cpu      time.Duration
	gcCPU    float64
	mallocs  uint64
	numGC    uint32
	in, out  int64
	walBytes uint64
	scanned  uint64
	rejected uint64
	returned uint64
}

func readCounters(s *system) (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st, err := s.rackStats()
	if err != nil {
		return counters{}, err
	}
	c := counters{
		cpu: cpuTime(), gcCPU: gcCPUSeconds(), mallocs: ms.Mallocs, numGC: ms.NumGC,
		walBytes: st.WALBytes, scanned: st.Totals.Scanned, rejected: st.Totals.Rejected,
		returned: st.Totals.Returned,
	}
	c.in, c.out = s.wireBytes()
	return c, nil
}

// phase is what one measured phase of a run adds up to.
type phase struct {
	ops, failed int
	segRates    []float64 // operations per second, one per segment
	segCPU      []float64 // CPU milliseconds per operation, one per segment
	latencies   []float64 // milliseconds, every operation
	spins       []float64 // calibration spins in milliseconds
	wall        time.Duration
	delta       counters // summed over the segments
}

// host is how much slower than the reference container this host ran during
// the phase: the median calibration spin over the reference's. A timing is
// divided by it, a rate multiplied, to read as the reference would have.
func (ph *phase) host() float64 { return median(ph.spins) / calibRefMS }

// calibrate adds three spins to the phase; every segment has them before and
// after it.
func (ph *phase) calibrate() {
	for i := 0; i < 3; i++ {
		ph.spins = append(ph.spins, spin())
	}
}

func (d *counters) add(before, after counters) {
	d.cpu += after.cpu - before.cpu
	d.gcCPU += after.gcCPU - before.gcCPU
	d.mallocs += after.mallocs - before.mallocs
	d.numGC += after.numGC - before.numGC
	d.in += after.in - before.in
	d.out += after.out - before.out
	d.walBytes += after.walBytes - before.walBytes
	d.scanned += after.scanned - before.scanned
	d.rejected += after.rejected - before.rejected
	d.returned += after.returned - before.returned
}
