// Command benchmark is xylem's performance ledger. It runs one named
// workload in-process, checks the program's outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) records spans around every call the benchmark makes
// into the program, times each layer through its public functions, and
// reports the per-layer metrics. BENCHMARK.json at the repository root
// lists every metric; LEDGER.md beside this file says what each one
// measures and which end-to-end metric it is expected to move.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// nproc is the CPU count the workloads are sized for: fig7-sweep and
// fleet-replay run one worker, serve-greens uses the daemon's two
// solvers and at most this many client connections.
const nproc = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger accumulates one run's measured values and operation counts.
// raw holds the unscaled times behind the reference-speed metrics; they
// go to standard error.
type ledger struct {
	mu        sync.Mutex
	vals      map[string]float64
	raw       map[string]float64
	attempted int64
	failed    int64
}

func newLedger() *ledger { return &ledger{vals: map[string]float64{}, raw: map[string]float64{}} }

func (l *ledger) set(name string, v float64) {
	l.mu.Lock()
	l.vals[name] = v
	l.mu.Unlock()
}

// setRef reports a time at reference speed and keeps its raw value under
// rawName.
func (l *ledger) setRef(name, rawName string, raw, ref float64) {
	l.set(name, ref)
	l.mu.Lock()
	l.raw[rawName] = raw
	l.mu.Unlock()
}

// attempt counts n operations attempted.
func (l *ledger) attempt(n int) {
	l.mu.Lock()
	l.attempted += int64(n)
	l.mu.Unlock()
}

// fail counts n failed operations and says why on standard error.
func (l *ledger) fail(n int, format string, args ...any) {
	l.mu.Lock()
	l.failed += int64(n)
	l.mu.Unlock()
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// opts is the parsed command line.
type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// traceDir receives the span dumps of traced runs; run.sh builds into
// the same directory.
const traceDir = ".bench_build"

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(o opts, l *ledger) error
}{
	"fig7-sweep":   {runFig7, tracedFig7},
	"serve-greens": {runServe, tracedServe},
	"fleet-replay": {runFleet, tracedFleet},
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig7-sweep, serve-greens or fleet-replay")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	// One P: on the shared 2-vCPU box, runs whose goroutines spread over
	// both vCPUs swung by a quarter from one run to the next, while the
	// same closed loop on one P repeated within 2%. The price is that a
	// change in multi-core scaling does not show here.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	l := newLedger()
	run := w.run
	if o.trace {
		run = w.traced
	}
	if err := run(o, l); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if len(l.raw) > 0 {
		raw, _ := json.Marshal(l.raw)
		fmt.Fprintf(os.Stderr, "raw times: %s\n", raw)
	}
	if l.attempted < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: no operations attempted")
		os.Exit(1)
	}
	ms, err := cat.resolve(l.vals, o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// heapSampler records the live heap of the measured phases — the bytes
// a collection found reachable — once per collection, polling
// runtime/metrics (which does not stop the world) every 5 ms. The peak of
// those, and the peak of live-plus-unswept bytes, swung by a tenth from
// run to run with the collector's timing; over ten runs, their median
// over collections spread a twentieth at most.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	cycles  uint64
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	read := func() {
		metrics.Read(s)
		if c := s[1].Value.Uint64(); c != h.cycles || len(h.samples) == 0 {
			h.cycles = c
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median over collections in
// MiB.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples) / (1 << 20)
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile (rank ceil(q·n)) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timeMedian calls f reps times and returns the median wall per call in
// seconds.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = since(t0)
	}
	return median(ts)
}

// readRef reads a committed reference output. The benchmark runs from
// the repository root.
func readRef(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join("benchmark", "testdata", name))
}
