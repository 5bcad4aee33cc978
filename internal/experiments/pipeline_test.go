package experiments

import (
	"bytes"
	"context"
	"testing"

	"algoprof"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// corpus is the workload set the equivalence suite runs: every program the
// repo's experiments exercise, small enough to keep the suite fast.
func corpus() map[string]string {
	c := map[string]string{
		"running":    workloads.RunningExample(workloads.Random, 48, 6, 2),
		"functional": workloads.FunctionalSort(workloads.Random, 32, 8, 2),
		"arraylist":  workloads.ArrayListGrow(true, 32, 8, 2),
		"listing3":   workloads.Listing3,
		"listing4":   workloads.Listing4(24),
		"listing5":   workloads.Listing5,
		"mergevsins": workloads.MergeVsInsertion(32, 8, 2),
		"freqmap":    workloads.RunningExampleScanned(workloads.Sorted, 32, 8, 2, 2),
	}
	for _, row := range workloads.Table1() {
		c["table1/"+row.Name()] = row.Source(12)
	}
	return c
}

// TestPipelinedProfileByteIdentical asserts the headline determinism claim:
// for every corpus workload, routing events through the fan-out transport
// — as a recording run does, with the trace writer as a second consumer,
// and as replaying that trace does — yields a byte-identical report to
// direct dispatch into the profiler.
func TestPipelinedProfileByteIdentical(t *testing.T) {
	for name, src := range corpus() {
		t.Run(name, func(t *testing.T) {
			direct, err := algoprof.Run(src, algoprof.Config{Seed: 42})
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			var buf bytes.Buffer
			recorded, err := algoprof.Record(src, algoprof.Config{Seed: 42}, &buf, trace.WriterOptions{})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			prog, err := compiler.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			r, err := trace.NewReader(buf.Bytes())
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			replayed, err := algoprof.ReplayProgram(prog, algoprof.Config{Seed: 42}, r)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			a := profileKey(direct)
			for route, p := range map[string]*algoprof.Profile{"recorded": recorded, "replayed": replayed} {
				if b := profileKey(p); a != b {
					t.Errorf("%s profile differs from direct dispatch:\n--- direct ---\n%s\n--- %s ---\n%s", route, a, route, b)
				}
			}
		})
	}
}

// TestCombinedRunMatchesDedicatedRun pins the single-pass contract for
// all three backends: for every corpus workload, the fan-out's core
// profile (plan-filtered from the union-plan stream), CCT flat profile,
// and basic-block counts equal those of dedicated single-backend passes.
func TestCombinedRunMatchesDedicatedRun(t *testing.T) {
	for name, src := range corpus() {
		t.Run(name, func(t *testing.T) {
			combined, err := RunBackends(src, 42)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compiler.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			d, err := runDedicated(prog, src, 42)
			if err != nil {
				t.Fatal(err)
			}
			if m := d.mismatch(combined); m != "" {
				t.Errorf("fan-out %s output differs from its dedicated pass", m)
			}
		})
	}
}

// TestMultiListenerEquivalence: attaching the verifier as a fourth
// consumer must not perturb the other three — the verified fan-out's
// fingerprint equals the plain fan-out's.
func TestMultiListenerEquivalence(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 48, 6, 2)
	base, err := RunBackends(src, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunBackendsVerified(context.Background(), src, algoprof.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !BackendsIdentical(base, got) {
		t.Errorf("verified fan-out differs from plain fan-out:\n--- plain ---\n%s\n--- verified ---\n%s",
			BackendsFingerprint(base), BackendsFingerprint(got))
	}
}

func TestCompareIdentical(t *testing.T) {
	res, err := Compare(smallSweep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatch != "" {
		t.Errorf("Compare: fan-out %s output differs from its dedicated pass", res.Mismatch)
	}
	if res.SortModel == "" || res.HottestExclusive == "" || res.TopBlock == "" {
		t.Errorf("Compare returned empty fields: %+v", res)
	}
}

func TestPipelineBenchIdentity(t *testing.T) {
	var tick int64
	pts, err := PipelineBench([]int{24}, 42, func() int64 { tick++; return tick })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if !p.Identical {
		t.Error("fan-out outputs differ from the dedicated passes")
	}
	if p.ThreePassNs <= 0 || p.SyncFanoutNs <= 0 {
		t.Errorf("non-positive timing in %+v", p)
	}
}
