package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// exactCounters are the per-layer metrics that count work rather than
// time it: on one seed they must repeat exactly.
var exactCounters = []string{
	"vm.instrs", "vm.probe_instrs", "core.events",
	"snapshot.memo_hits", "snapshot.memo_misses",
	"trace.records", "trace_mb", "group.algorithms",
}

// randomInput names the workloads whose programs draw input from the seed.
var randomInput = map[string]bool{"sort-events": true, "record-replay": true, "daemon-mix": true}

func tracedRun(t *testing.T, workload string, seed int64) map[string]float64 {
	t.Helper()
	res, _, _, err := benchmark(workload, seed, 200*time.Millisecond, true, t.TempDir(), true)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", workload, seed, res.Correct, res.Attempted, res.Failed)
	}
	out := map[string]float64{}
	for k, m := range res.Metrics {
		out[k] = m.Value
	}
	return out
}

// TestExactCountersRepeat runs every workload twice on one seed at reduced
// size and requires the exact counters to agree, then once on another
// seed, which must move the counters of workloads with random input —
// proof that the seed reaches the program.
func TestExactCountersRepeat(t *testing.T) {
	for name := range benches {
		t.Run(name, func(t *testing.T) {
			a, b := tracedRun(t, name, 1), tracedRun(t, name, 1)
			for _, k := range exactCounters {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v on the same seed", k, a[k], b[k])
				}
			}
			if a["vm.instrs"] == 0 || a["core.events"] == 0 {
				t.Errorf("vm.instrs=%v core.events=%v, want both counted", a["vm.instrs"], a["core.events"])
			}
			if !randomInput[name] {
				return
			}
			c := tracedRun(t, name, 2)
			for _, k := range []string{"vm.instrs", "core.events"} {
				if a[k] == c[k] {
					t.Errorf("%s = %v on seeds 1 and 2; the seed does not reach the program", k, a[k])
				}
			}
		})
	}
}

// TestEndToEndMetrics checks an untraced run reports every end-to-end
// metric, each nonzero.
func TestEndToEndMetrics(t *testing.T) {
	res, _, _, err := benchmark("sort-events", 1, 0, false, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("correct=%v metrics=%v", res.Correct, res.Metrics)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.name]; got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with what
// the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(benches) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(benches))
	}
	for _, w := range spec.Workloads {
		if benches[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}
