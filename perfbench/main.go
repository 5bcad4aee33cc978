// Command perfbench is algoprof's benchmark: one process that sets up one
// workload, runs it for a fixed time, checks every output, and prints its
// metrics as the last line of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload sort-events --seed 1 --seconds 5 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// workload with spans around every call the benchmark makes into a layer
// and prints the per-layer metrics instead; LAYERS.md names the end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the profiler sees; every workload
// reports all of them. An operation is the workload's unit of user-visible
// work: one profiling run (sort-events, scan-paths), one record-then-replay
// round trip (record-replay), one job round trip (daemon-mix).
//
// Their times are user CPU times at reference speed (see calib.go), which
// stay steady where wall times on a shared machine do not; the
// operations' wall-clock latencies are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},    // median of setupRepeats set-ups
	{"op_ref_ms", "ms"}, // median per operation
	{"alloc_mb", "MB"},  // Go heap bytes allocated per operation
}

// perLayer are the traced run's metrics. Layers a workload leaves idle
// report 0.
var perLayer = []metricDef{
	{"mj.compile_ms", "ms"},
	{"instrument.ms", "ms"},
	{"instrument.sites", "count"},
	{"vm.run_s", "s"},
	{"vm.instrs", "count"},
	{"vm.ns_per_instr", "ns"},
	{"vm.probe_instrs", "count"},
	{"core.self_s", "s"},
	{"core.events", "count"},
	{"core.ns_per_event", "ns"},
	{"core.live_mb", "MB"},
	{"snapshot.memo_hits", "count"},
	{"snapshot.memo_misses", "count"},
	{"snapshot.memo_hit_ratio", "ratio"},
	{"group.ms", "ms"},
	{"classify.ms", "ms"},
	{"fit.ms", "ms"},
	{"group.algorithms", "count"},
	{"trace.encode_s", "s"},
	{"trace.records", "count"},
	{"trace.frames", "count"},
	{"trace.bytes_per_record", "B"},
	{"trace.replay_s", "s"},
	{"store.persist_s", "s"},
	{"store.load_s", "s"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.retries", "count"},
	{"http.overhead_ms", "ms"},
	{"journal.bytes", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"profile_s", "s"},
	{"record_s", "s"},
	{"replay_s", "s"},
	{"trace_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"slowdown", "x"},
	{"failed_frac", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 5

// minOps is the fewest operations a run measures, however slow they are.
const minOps = 3

// hardLimit bounds a whole run: past it the process reports and exits
// rather than hang.
const hardLimit = 170 * time.Second

// stamp identifies where and on what a result was measured.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Nproc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// RefKernelMs is the reference kernel's median user CPU time in the run:
	// the machine's speed, which the end-to-end times are scaled by.
	RefKernelMs float64 `json:"ref_kernel_ms"`
}

func newStamp(workload string, seed int64) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && commit != "unknown" {
			commit += "-dirty"
		}
	}
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Nproc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerError names the layer a set-up or operation failed in.
type layerError struct {
	layer string
	err   error
}

func (e *layerError) Error() string { return e.layer + ": " + e.err.Error() }
func (e *layerError) Unwrap() error { return e.err }

func inLayer(layer string, err error) error {
	if err == nil {
		return nil
	}
	var le *layerError
	if errors.As(err, &le) {
		return err
	}
	return &layerError{layer, err}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	tmp := flag.String("tmp", "", "directory for the run's temporary stores (default: the system's)")
	spansDir := flag.String("spans-dir", "", "directory to write a traced run's spans to")
	flag.Parse()

	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; exiting\n", hardLimit)
		os.Exit(2)
	})
	res, st, tr, err := benchmark(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *tmp, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if tr != nil && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := tr.write(path, st); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(map[string]stamp{"stamp": st})
	if err == nil {
		fmt.Println(string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark sets the named workload up setupRepeats times, measures the
// last set-up for d, and assembles the result: end-to-end metrics, or with
// traced the per-layer ones. small shrinks every workload for tests.
func benchmark(name string, seed int64, d time.Duration, traced bool, tmpRoot string, small bool) (*result, stamp, *tracer, error) {
	st := newStamp(name, seed)
	w, ok := benches[name]
	if !ok {
		return nil, st, nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	tmp, err := os.MkdirTemp(tmpRoot, "perfbench-")
	if err != nil {
		return nil, st, nil, inLayer("bench", err)
	}
	defer os.RemoveAll(tmp)

	r := newRun(seed, small, tmp)
	if traced {
		r.tr = newTracer()
	}
	var setups []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, st, nil, err
			}
		}
		r.resetSetup()
		c0 := userSeconds()
		b, err = w(r)
		if err != nil {
			return nil, st, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, userSeconds()-c0)
		r.calibrate()
	}
	// Flush what set-up and earlier runs left for the disk to write, so
	// that their write-back does not land inside the measurement.
	syscall.Sync()
	measureErr := b.measure(time.Now().Add(d), r)
	if err := b.close(); err != nil && measureErr == nil {
		measureErr = err
	}
	if measureErr != nil {
		return nil, st, nil, measureErr
	}
	if r.attempted == 0 {
		return nil, st, nil, errors.New("no operation completed")
	}

	st.RefKernelMs = median(r.calib) * 1e3
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		r.finishLayers()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layer[m.name], m.unit}
		}
		return res, st, r.tr, nil
	}
	ops := float64(len(r.ops))
	values := map[string]float64{
		"setup_s":   r.atRefSpeed(median(setups)),
		"op_ref_ms": r.atRefSpeed(median(r.opsCPU)) * 1e3,
		"alloc_mb":  ratio(float64(r.allocBytes), ops) / 1e6,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, st, nil, nil
}

// bench is one set-up workload, ready to measure.
type bench interface {
	// measure runs operations until the deadline, checking every output
	// and recording samples in r.
	measure(deadline time.Time, r *run) error
	// close stops everything the set-up started and removes its files.
	close() error
}

// benches maps each workload name to its set-up.
var benches = map[string]func(r *run) (bench, error){
	"sort-events":   setupSortEvents,
	"scan-paths":    setupScanPaths,
	"record-replay": setupRecordReplay,
	"daemon-mix":    setupDaemonMix,
}

func workloadNames() string {
	names := make([]string, 0, len(benches))
	for n := range benches {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
