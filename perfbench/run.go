package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
)

// run is one benchmark run's configuration and accumulated samples.
type run struct {
	seed  uint64 // the programs' seed (Config.Seed), drawn from --seed
	small bool   // reduced sizes, for tests
	tmp   string // private directory for stores, removed at the end
	tr    *tracer

	attempted, failed int
	ops               []float64 // seconds per untraced operation
	opsCPU            []float64 // user CPU seconds per untraced operation
	calib             []float64 // user CPU seconds per run of the reference kernel
	tracedOps         []float64 // seconds per traced operation
	plain             []float64 // seconds per plain VM run
	slowdowns         []float64 // operation ÷ plain run, per adjacent pair or round
	allocBytes        uint64    // Go heap bytes allocated by operations
	gcCycles          uint32
	gcPauseNs         uint64

	// layer holds the per-layer metrics; exact holds the first
	// operation's exact counters, which every later operation must repeat.
	layer map[string]float64
	exact map[string]float64
}

func newRun(seed int64, small bool, tmp string) *run {
	return &run{seed: splitmix(uint64(seed)), small: small, tmp: tmp, layer: map[string]float64{}}
}

// splitmix scrambles the benchmark seed into a program seed, so that
// neighbouring --seed values give unrelated inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// resetSetup clears what a set-up records, so the measured set-up's
// values are the ones reported.
func (r *run) resetSetup() {
	r.layer = map[string]float64{}
	r.exact = nil
	r.attempted, r.failed = 0, 0
}

// compile compiles MJ source in an "mj" span.
func (r *run) compile(src string) (*bytecode.Program, error) {
	sp := r.tr.begin("mj", 0, -1)
	prog, err := compiler.CompileSource(src)
	r.tr.end(sp)
	return prog, inLayer("mj", err)
}

// timePlain times one plain (unprofiled) VM run.
func (r *run) timePlain(f func() error) (float64, bool) {
	sp := r.tr.begin("vm.plain", 0, -1)
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	r.tr.end(sp)
	if err != nil {
		r.attempted++
		r.fail(fmt.Errorf("plain run: %w", err))
		return 0, false
	}
	r.plain = append(r.plain, d)
	return d, true
}

// timeOp times one operation. f runs it under a root span (traced) and
// returns a check of its output, which runs outside the timed region. It
// reports the operation's seconds, and whether it succeeded.
func (r *run) timeOp(traced bool, f func(op, root int) (check func() error, err error)) (float64, bool) {
	r.attempted++
	op := r.attempted
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := -1
	if traced {
		root = r.tr.begin("op", op, -1)
	}
	c0, t0 := userSeconds(), time.Now()
	check, err := f(op, root)
	d, cpu := time.Since(t0).Seconds(), userSeconds()-c0
	r.tr.end(root)
	runtime.ReadMemStats(&m1)
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		r.fail(err)
		return 0, false
	}
	if traced {
		r.tracedOps = append(r.tracedOps, d)
	} else {
		r.ops = append(r.ops, d)
		r.opsCPU = append(r.opsCPU, cpu)
	}
	return d, true
}

// calibrate times the reference kernel, on a collected heap, for the
// run's machine speed.
func (r *run) calibrate() {
	runtime.GC()
	c0 := userSeconds()
	for i := 0; i < calibRepeats; i++ {
		sink += refKernel()
	}
	r.calib = append(r.calib, (userSeconds()-c0)/calibRepeats)
}

// atRefSpeed converts user CPU seconds measured in this run to seconds on
// a machine where the reference kernel takes refKernelSeconds: the run's
// measurements scaled by refKernelSeconds over the kernel's median time.
func (r *run) atRefSpeed(seconds float64) float64 {
	return seconds * refKernelSeconds / median(r.calib)
}

func (r *run) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed operation %d: %v\n", r.attempted, err)
}

// sameCounters checks an operation's exact counters against the values
// they first took in this run: on one seed they must repeat exactly.
func (r *run) sameCounters(c map[string]float64) error {
	if r.exact == nil {
		r.exact = map[string]float64{}
	}
	for k, v := range c {
		first, seen := r.exact[k]
		if !seen {
			r.exact[k] = v
			r.layer[k] = v
		} else if first != v {
			return fmt.Errorf("exact counter %s changed between operations: %v then %v", k, first, v)
		}
	}
	return nil
}

// meanSelf is the mean self time, in seconds, of the spans named name.
func (r *run) meanSelf(name string) float64 {
	total, n := r.tr.selfTime(name)
	return ratio(total.Seconds(), float64(n))
}

// measureSeq runs operations until the deadline. A traced run also times
// a plain VM run next to each operation, swapping their order every
// iteration, for the per-layer vm and slowdown figures. It traces every
// other pair of operations and leaves the rest untraced, to measure what
// tracing costs, and calls aside (if set) once per iteration, outside any
// timing, for traced calls that have no untraced counterpart.
func (r *run) measureSeq(deadline time.Time, plain func() error, op func(op, root int, traced bool) (func() error, error), aside func() error) {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := r.tr != nil && (i/2)%2 == 0
		// Each run starts on a collected heap, so that none pays for the
		// garbage of the one before.
		timeOp := func() (float64, bool) {
			runtime.GC()
			return r.timeOp(traced, func(id, root int) (func() error, error) { return op(id, root, traced) })
		}
		if r.tr == nil {
			timeOp()
			r.calibrate()
			continue
		}
		timePlain := func() (float64, bool) {
			runtime.GC()
			return r.timePlain(plain)
		}
		var p, o float64
		var pOK, oOK bool
		if i%2 == 0 {
			p, pOK = timePlain()
			o, oOK = timeOp()
		} else {
			o, oOK = timeOp()
			p, pOK = timePlain()
		}
		if pOK && oOK && !traced {
			r.slowdowns = append(r.slowdowns, o/p)
		}
		if aside != nil {
			if err := aside(); err != nil {
				r.attempted++
				r.fail(err)
			}
		}
	}
}

// spanLayers maps each per-layer time metric, in ms, to the spans whose
// mean self time it reports.
var spanLayers = map[string]string{
	"mj.compile_ms": "mj",
	"instrument.ms": "instrument",
	"group.ms":      "group",
	"classify.ms":   "classify",
	"fit.ms":        "fit",
}

// finishLayers adds the per-layer metrics every workload shares: the
// layer spans' mean times, and the run's totals.
func (r *run) finishLayers() {
	for metric, name := range spanLayers {
		r.layer[metric] = r.meanSelf(name) * 1e3
	}
	ops := float64(len(r.ops) + len(r.tracedOps))
	r.layer["go.gc_cycles"] = ratio(float64(r.gcCycles), ops)
	r.layer["go.gc_pause_ms"] = ratio(float64(r.gcPauseNs)/1e6, ops)
	r.layer["failed_frac"] = ratio(float64(r.failed), float64(r.attempted))
	r.layer["slowdown"] = median(r.slowdowns)
	if len(r.ops) > 0 && len(r.tracedOps) > 0 {
		r.layer["bench.trace_overhead_pct"] = (median(r.tracedOps)/median(r.ops) - 1) * 100
	}
}
