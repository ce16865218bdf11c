package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
)

// catalogEntry is one metric as BENCHMARK.json declares it.
type catalogEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalog is the metric list of BENCHMARK.json, the single source of
// every metric's name and unit.
type catalog struct {
	EndToEnd []catalogEntry `json:"end_to_end"`
	PerLayer []catalogEntry `json:"per_layer"`
}

func loadCatalog() (*catalog, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// resolve attaches units to the measured values and checks that the run
// measured exactly the metrics its mode reports.
func (c *catalog) resolve(vals map[string]float64, traced bool) (map[string]metric, error) {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	out := make(map[string]metric, len(want))
	var missing []string
	for _, e := range want {
		v, ok := vals[e.Name]
		if !ok {
			missing = append(missing, e.Name)
			continue
		}
		out[e.Name] = metric{Value: v, Unit: e.Unit}
	}
	var extra []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics missing %v, undeclared %v", missing, extra)
	}
	return out, nil
}

// jobMetrics are the per-layer metrics that come from a workload's own
// traced run rather than from the layer probes. A traced run reports the
// other workloads' job metrics as 0: it never enters those layers.
var jobMetrics = [][]string{
	{"exp.self_s"},
	{"serve.self_ms", "serve.batch_width_mean", "serve.cache_hit_ratio", "serve.queue_wait_p50_ms",
		"loadgen.lag_p99_ms", "loadgen.p50_ms", "loadgen.p99_ms"},
	{"fleet.solves", "fleet.injected_faults", "fleet.self_s"},
}

// zeroAbsent reports 0 for every job metric the run did not measure.
func zeroAbsent(l *ledger) {
	for _, group := range jobMetrics {
		for _, name := range group {
			if _, ok := l.vals[name]; !ok {
				l.set(name, 0)
			}
		}
	}
}

// setEvalCounts reports an evaluator's work counters over ops workload
// operations.
func setEvalCounts(l *ledger, s perf.Stats, ops int) {
	l.set("cpusim.activity_calls", float64(s.ActivityRuns))
	l.set("perf.solves_per_point", float64(s.Solves)/float64(ops))
	l.set("perf.degraded_solves", float64(s.DegradedSolves))
	l.set("perf.greens_misses", float64(s.GreensMisses))
}

// setRegistryCounts reports the same counters from an attached registry.
func setRegistryCounts(l *ledger, reg *obs.Registry, ops int) {
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	l.set("cpusim.activity_calls", c("xylem_perf_activity_runs_total"))
	l.set("perf.solves_per_point", c("xylem_perf_solves_total")/float64(ops))
	l.set("perf.degraded_solves", c("xylem_perf_degraded_solves_total"))
	l.set("perf.greens_misses", c("xylem_perf_greens_misses_total"))
}
