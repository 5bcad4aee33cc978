package experiments

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"algoprof"
	"algoprof/internal/bbprof"
	"algoprof/internal/cct"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// ---------------------------------------------------------------------------
// Single-pass backend comparison: one execution feeds the algorithmic
// profiler, the CCT baseline, and the basic-block baseline through the
// event transport, where comparing backends previously re-ran the workload
// once per listener.

// Backends is the result of one combined execution pass.
type Backends struct {
	// Profile is the algorithmic profile (the core consumed the stream
	// filtered to the optimized plan, exactly as a dedicated run would).
	Profile *algoprof.Profile
	// CCT is the finished calling-context-tree baseline.
	CCT *cct.Profiler
	// BBRun is the basic-block baseline's counts for this run.
	BBRun bbprof.Run
	// Instructions is the executed instruction count.
	Instructions uint64

	ins *instrument.Instrumented
}

// CCTRender renders the CCT against the instrumented program.
func (b *Backends) CCTRender() string { return cct.Render(b.CCT, b.ins.Prog) }

// HottestExclusive is the CCT's hottest method by exclusive cost.
func (b *Backends) HottestExclusive() string {
	flat := b.CCT.Flat()
	if len(flat) == 0 {
		return ""
	}
	return b.ins.Prog.Sem.MethodByID(flat[0].MethodID).QualifiedName()
}

// TopBlock names the hottest basic block by raw execution count.
func (b *Backends) TopBlock() string {
	var best string
	var bestCount int64 = -1
	locs := make([]bbprof.Location, 0, len(b.BBRun.Counts))
	for l := range b.BBRun.Counts {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].MethodID != locs[j].MethodID {
			return locs[i].MethodID < locs[j].MethodID
		}
		return locs[i].Block < locs[j].Block
	})
	for _, l := range locs {
		if c := b.BBRun.Counts[l]; c > bestCount {
			bestCount = c
			best = fmt.Sprintf("%s block %d (%d executions)",
				b.ins.Prog.Sem.MethodByID(l.MethodID).QualifiedName(), l.Block, c)
		}
	}
	return best
}

// RunBackends executes src once and feeds all three backends from the one
// event stream. The VM runs under the union of the consumers' plans and
// the core consumer filters records down to the optimized plan, so each
// backend's output is identical to a dedicated single-backend pass.
func RunBackends(src string, seed uint64) (*Backends, error) {
	return runBackends(context.Background(), src, algoprof.Config{Seed: seed}, false)
}

// RunBackendsVerified is RunBackends with the online invariant verifier
// riding the same stream as a fourth consumer. Beyond the stream
// well-formedness checks, the verifier cross-checks the backends against
// each other — repetition-tree accounting against the stream's loop/method
// events, and the CCT's call counts against the stream's method entries —
// so a bug that desynchronizes one backend surfaces as a typed
// *verify.Error instead of a silently inconsistent comparison.
//
// The pass runs the program with cfg's Seed (as the VM seed, verbatim),
// Input and MaxSteps, polls cfg.Watchdog, and stops with ctx's error
// when ctx ends; cfg's Limits are not applied — bound the pass's
// wall-clock time through ctx.
func RunBackendsVerified(ctx context.Context, src string, cfg algoprof.Config) (*Backends, error) {
	return runBackends(ctx, src, cfg, true)
}

func runBackends(ctx context.Context, src string, cfg algoprof.Config, verified bool) (*Backends, error) {
	s, err := newBackendSetup(src)
	if err != nil {
		return nil, err
	}
	var chk *verify.Checker
	if verified {
		// The checker taps the raw (union-plan) stream: the loop events it
		// sees are exactly the tree's, and its method-entry counts bound the
		// optimized tree from above while matching the CCT exactly.
		chk = verify.NewChecker()
		s.tp.Add(chk, nil)
	}
	// The basic-block counter hooks the VM directly: the per-instruction
	// stream is orders of magnitude denser than the event stream, and
	// encoding each tick as a record buys nothing a live run needs.
	machine := vm.New(s.insFull.Prog, vm.Config{
		Listener:  s.tp,
		Plan:      s.union,
		InstrHook: s.bb.Hook,
		Seed:      cfg.Seed,
		Input:     cfg.Input,
		MaxSteps:  cfg.MaxSteps,
		Watchdog:  watchdog(ctx, cfg.Watchdog),
	})
	s.tp.BindClock(&machine.InstrCount)
	if err := machine.Run(); err != nil {
		return nil, err
	}
	b, err := s.finish(machine.InstrCount)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		chk.Finish(false)
		chk.Add(verify.CheckTree(s.coreProf, false))
		chk.Add(verify.AgreeStream(chk, s.coreProf))
		chk.Add(verify.AgreeCCT(chk, s.cctProf.Flat()))
		if err := chk.Err(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// watchdog builds the VM watchdog of a backends pass: extra (a caller's
// progress or fault hook, may be nil) runs first, then the pass stops
// with ctx's error once ctx ends. Nil when neither can fire, keeping the
// interpreter's hot loop free of the poll.
func watchdog(ctx context.Context, extra func() error) func() error {
	if ctx.Done() == nil && extra == nil {
		return nil
	}
	return func() error {
		if extra != nil {
			if err := extra(); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
}

// CompareResult is the cmd/paper "compare" section: all three backends on
// the running example from one execution pass.
type CompareResult struct {
	// SortModel / SortCoeff is the algorithmic profiler's fitted cost
	// function for the sort algorithm.
	SortModel string
	SortCoeff float64
	// HottestExclusive is the CCT baseline's hottest method.
	HottestExclusive string
	// TopBlock is the basic-block baseline's hottest block.
	TopBlock string
	// Passes is how many workload executions the comparison used (1,
	// where dedicated backends need 3).
	Passes int
	// Mismatch names the first backend whose fan-out output differs from
	// its dedicated pass; empty when all three match.
	Mismatch string
}

// Compare runs the backend comparison as one fan-out pass, re-runs each
// backend in its own dedicated pass, and checks that the outputs match.
func Compare(sw Sweep) (*CompareResult, error) {
	src := workloads.RunningExample(workloads.Random, sw.MaxSize, sw.Step, sw.Reps)
	b, err := RunBackends(src, sw.Seed)
	if err != nil {
		return nil, err
	}
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	d, err := runDedicated(prog, src, sw.Seed)
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		HottestExclusive: b.HottestExclusive(),
		TopBlock:         b.TopBlock(),
		Passes:           1,
		Mismatch:         d.mismatch(b),
	}
	if alg := b.Profile.Find("List.sort/loop1"); alg != nil {
		for _, cf := range alg.CostFunctions {
			if strings.Contains(cf.InputLabel, "Node") {
				res.SortModel, res.SortCoeff = cf.Model, cf.Coeff
			}
		}
	}
	if res.SortModel == "" {
		return nil, fmt.Errorf("compare: sort cost function not found")
	}
	return res, nil
}

// dedicated is the output of the three single-backend passes a fan-out
// pass replaces: a plain optimized-plan profiling run, a CCT baseline
// run under the full plan, and a basic-block baseline run of the
// uninstrumented program.
type dedicated struct {
	profile *algoprof.Profile
	cctFlat []cct.HotMethod
	bbRun   bbprof.Run
}

// runDedicated runs the three dedicated passes of src (compiled as prog).
func runDedicated(prog *bytecode.Program, src string, seed uint64) (*dedicated, error) {
	p, err := algoprof.RunProgram(prog, algoprof.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	flat, err := cctPass(src, seed)
	if err != nil {
		return nil, err
	}
	bb, err := bbPass(src, seed)
	if err != nil {
		return nil, err
	}
	return &dedicated{profile: p, cctFlat: flat, bbRun: bb}, nil
}

// mismatch names the first backend whose output in the fan-out pass b
// differs from its dedicated pass ("core", "cct" or "bb"), or returns ""
// when all three match: the core profile's tree and JSON byte for byte,
// the CCT's flat per-method calls and costs, and every block count.
func (d *dedicated) mismatch(b *Backends) string {
	switch {
	case profileKey(d.profile) != profileKey(b.Profile):
		return "core"
	case !reflect.DeepEqual(d.cctFlat, b.CCT.Flat()):
		return "cct"
	case !maps.Equal(d.bbRun.Counts, b.BBRun.Counts):
		return "bb"
	}
	return ""
}

// profileKey renders a profile's tree and JSON for byte comparison.
func profileKey(p *algoprof.Profile) string {
	js, _ := p.JSON()
	return p.Tree() + "\n---\n" + string(js)
}

// BackendsIdentical compares two combined runs' rendered outputs byte for
// byte: profile tree + JSON, CCT render, and basic-block counts.
func BackendsIdentical(a, b *Backends) bool {
	return BackendsFingerprint(a) == BackendsFingerprint(b)
}

// BackendsFingerprint renders every backend output of a combined run into
// one string for byte-identity comparison.
func BackendsFingerprint(b *Backends) string {
	var sb strings.Builder
	sb.WriteString(b.Profile.Tree())
	sb.WriteByte('\n')
	js, _ := b.Profile.JSON()
	sb.Write(js)
	sb.WriteByte('\n')
	sb.WriteString(b.CCTRender())
	sb.WriteByte('\n')
	locs := make([]bbprof.Location, 0, len(b.BBRun.Counts))
	for l := range b.BBRun.Counts {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].MethodID != locs[j].MethodID {
			return locs[i].MethodID < locs[j].MethodID
		}
		return locs[i].Block < locs[j].Block
	})
	for _, l := range locs {
		fmt.Fprintf(&sb, "%d.%d=%d\n", l.MethodID, l.Block, b.BBRun.Counts[l])
	}
	fmt.Fprintf(&sb, "instrs=%d\n", b.Instructions)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Pipeline benchmark (BENCH_pipeline.json).

// PipelinePoint measures the single-pass fan-out against three dedicated
// passes at one workload size.
type PipelinePoint struct {
	Size int
	// Passes is the number of read-only sortedness scans per constructed
	// list (the sort-once-query-many workload shape); scaled with Size so
	// scan work and sort work keep a fixed ratio across the sweep.
	Passes int
	// ThreePassNs runs the workload three times, once per backend.
	ThreePassNs int64
	// SyncFanoutNs is one pass fanning out to all three backends inline.
	SyncFanoutNs int64
	// SpeedupRatio is the median over rounds of the per-round
	// three-pass/fan-out ratio. Comparing legs of the same round makes
	// the ratio robust to machine-speed drift between rounds, which
	// best-of-N leg times are not.
	SpeedupRatio float64
	// Identical reports that every round's fan-out outputs matched its
	// dedicated passes.
	Identical bool
}

// Speedup is the single-pass multi-listener gain over three passes: the
// median per-round ratio (see SpeedupRatio).
func (p PipelinePoint) Speedup() float64 { return p.SpeedupRatio }

// PipelineBench measures the fan-out against three dedicated passes
// across workload sizes. Per point it runs several interleaved rounds of
// both legs; the reported leg times are each leg's best round (the floor
// estimate), and the headline speedup is the median per-round ratio,
// which holds up when the machine's speed drifts between rounds.
//
// The workload is the sort-once-query-many shape (RunningExampleScanned):
// each constructed list is sorted once and then scanned 8*size times. This
// is the regime the fan-out targets — the dedicated CCT and basic-block
// baseline passes each re-execute the whole scan phase, so the single
// pass saves two full re-executions; the write-heavy regime, where the
// core's snapshot traversals dominate every configuration, is covered by
// the overhead sweep (BENCH_overhead.json).
func PipelineBench(sizes []int, seed uint64, now func() int64) ([]PipelinePoint, error) {
	const rounds = 7
	out := make([]PipelinePoint, len(sizes))
	err := forEachIndex(len(sizes), func(i int) error {
		size := sizes[i]
		passes := 8 * size
		src := workloads.RunningExampleScanned(workloads.Random, size+1, max(size, 1), 2, passes)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			return err
		}
		// leg times one configuration, keeping the per-leg minimum. The
		// forced GC keeps one leg's allocation debt from being collected
		// on a later leg's clock — without it, leg-to-leg ratios swing
		// wildly run to run.
		leg := func(prev *int64, f func() error) (int64, error) {
			runtime.GC()
			t0 := now()
			if err := f(); err != nil {
				return 0, err
			}
			d := now() - t0
			if *prev == 0 || d < *prev {
				*prev = d
			}
			return d, nil
		}
		pt := PipelinePoint{Size: size, Passes: passes, Identical: true}
		ratios := make([]float64, 0, rounds)
		for round := 0; round < rounds; round++ {
			var d *dedicated
			threeNs, err := leg(&pt.ThreePassNs, func() error {
				d, err = runDedicated(prog, src, seed)
				return err
			})
			if err != nil {
				return err
			}
			var b *Backends
			fanNs, err := leg(&pt.SyncFanoutNs, func() error {
				b, err = RunBackends(src, seed)
				return err
			})
			if err != nil {
				return err
			}
			ratios = append(ratios, float64(threeNs)/float64(fanNs))
			if d.mismatch(b) != "" {
				pt.Identical = false
			}
		}
		sort.Float64s(ratios)
		pt.SpeedupRatio = ratios[len(ratios)/2]
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// cctPass is a dedicated CCT baseline pass (the Figure 2 setup); it
// returns the flat per-method profile.
func cctPass(src string, seed uint64) ([]cct.HotMethod, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}
	ins, err := instrument.Instrument(prog, instrument.Full)
	if err != nil {
		return nil, err
	}
	var machine *vm.VM
	p := cct.New(func() uint64 { return machine.InstrCount })
	machine = vm.New(ins.Prog, vm.Config{Listener: p, Plan: ins.Plan, Seed: seed})
	if err := machine.Run(); err != nil {
		return nil, err
	}
	p.Finish()
	return p.Flat(), nil
}

// bbPass is a dedicated basic-block baseline pass (the Goldsmith setup);
// it returns the block counts.
func bbPass(src string, seed uint64) (bbprof.Run, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return bbprof.Run{}, err
	}
	p := bbprof.New(prog)
	machine := vm.New(prog, vm.Config{InstrHook: p.Hook, Seed: seed})
	if err := machine.Run(); err != nil {
		return bbprof.Run{}, err
	}
	return p.Snapshot(0), nil
}
