package algoprof_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"algoprof"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// TestThreadedRunTransportEquivalence is the threaded determinism gate: a
// program that spawns VM threads must produce the byte-identical profile
// whether the per-thread sessions are wired directly or through
// per-thread event fan-outs feeding the verifier — scheduling may vary,
// the report may not. Run under -race this also exercises ≥2 threads
// emitting concurrently, each into its own fan-out.
func TestThreadedRunTransportEquivalence(t *testing.T) {
	src := workloads.Threaded(2, 20)
	var base []byte
	for _, tc := range []struct {
		name string
		cfg  algoprof.Config
	}{
		{"direct", algoprof.Config{}},
		{"verified", algoprof.Config{Verify: true}},
	} {
		prof, err := algoprof.Run(src, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prof.Threads != 2 {
			t.Fatalf("%s: Threads = %d, want 2", tc.name, prof.Threads)
		}
		if prof.Degraded {
			t.Fatalf("%s: degraded: %v", tc.name, prof.DegradedReasons)
		}
		data, err := prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = data
			continue
		}
		if !bytes.Equal(base, data) {
			t.Errorf("%s profile differs from direct wiring\ndirect:\n%s\n%s:\n%s", tc.name, base, tc.name, data)
		}
	}
}

// TestThreadedAttribution pins the merged report's shape: per-thread
// algorithms appear under "t<tid>:" names, both threads contribute, and
// the instruction count sums over all threads.
func TestThreadedAttribution(t *testing.T) {
	prof, err := algoprof.Run(workloads.Threaded(2, 20), algoprof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	perThread := map[string]int{}
	for _, a := range prof.Algorithms {
		if i := strings.Index(a.Name, ":"); i > 0 && a.Name[0] == 't' {
			perThread[a.Name[:i]]++
		}
	}
	if len(perThread) != 2 {
		t.Fatalf("algorithms attribute to %d threads (%v), want 2", len(perThread), perThread)
	}
	// The main thread only spawns and joins; nearly all instructions are
	// the workers'. A main-only count would be a small fraction.
	if prof.EventCount() == 0 {
		t.Error("merged profile counts zero events")
	}
	if prof.Threads != 2 {
		t.Errorf("Threads = %d, want 2", prof.Threads)
	}
}

// TestThreadedSeedIndependence: per-thread rng streams derive from the
// seed and the tid, so changing the seed changes every thread's draws,
// while rerunning the same seed reproduces them exactly.
func TestThreadedSeedIndependence(t *testing.T) {
	// Each thread prints a sum of rand draws, so its tid-derived stream is
	// visible in the output.
	const src = `
class Main {
  public static void main() {
    int h1 = spawn Main.work();
    int h2 = spawn Main.work();
    join h1;
    join h2;
  }
  static void work() {
    int s = 0;
    for (int i = 0; i < 8; i++) { s = s + rand(1000); }
    print(s);
  }
}`
	a1, err := algoprof.Run(src, algoprof.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := algoprof.Run(src, algoprof.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := algoprof.Run(src, algoprof.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a1.Stdout) != fmt.Sprint(a2.Stdout) {
		t.Errorf("same seed, different stdout: %v vs %v", a1.Stdout, a2.Stdout)
	}
	if a1.Instructions != a2.Instructions {
		t.Errorf("same seed, different instructions: %d vs %d", a1.Instructions, a2.Instructions)
	}
	if fmt.Sprint(a1.Stdout) == fmt.Sprint(b.Stdout) {
		t.Errorf("seed change did not reach spawned threads: both print %v", a1.Stdout)
	}
	// Sibling threads under one seed draw distinct streams.
	if a1.Stdout[0] == a1.Stdout[1] {
		t.Errorf("sibling threads drew identical sums: %v", a1.Stdout)
	}
}

// TestRecordWithoutSinkRejectsSpawn: the plain Record entry points have
// nowhere to put per-thread traces, so a spawning program must fail
// typed rather than silently record a main-only trace.
func TestRecordWithoutSinkRejectsSpawn(t *testing.T) {
	_, err := algoprof.Record(workloads.Threaded(2, 8), algoprof.Config{}, io.Discard, trace.WriterOptions{})
	if err == nil || !strings.Contains(err.Error(), "per-thread session provider") {
		t.Errorf("sinkless record of spawning program: err = %v", err)
	}
}
