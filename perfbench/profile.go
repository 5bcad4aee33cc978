package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"algoprof"
	"algoprof/internal/classify"
	"algoprof/internal/core"
	"algoprof/internal/group"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/report"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// profileBench measures profiling runs of one program: sort-events and
// scan-paths. An operation is one algoprof.RunProgram; a traced operation
// makes the same calls into each layer itself, one span per layer.
type profileBench struct {
	prog *bytecode.Program
	cfg  algoprof.Config
	// plain is the uninstrumented run's outputs and instruction count;
	// ref is the profile every operation must reproduce byte for byte.
	plain plainResult
	ref   []byte
	// check is the workload's own oracle on a profile.
	check func(*algoprof.Profile) error
}

type plainResult struct {
	stdout, output []string
	instrs         uint64
}

// setupSortEvents: insertion sort of random lists (paper Listing 1/2,
// Figure 1a) profiled in events mode. Every sort step rewrites links, so
// the snapshot memo misses about half the time and the event stream
// keeps vm, probes and core busy.
func setupSortEvents(r *run) (bench, error) {
	src := workloads.RunningExample(workloads.Random, 256, 8, 2)
	if r.small {
		src = workloads.RunningExample(workloads.Random, 64, 6, 2)
	}
	b, ref, err := setupProfile(r, src, algoprof.ModeEvents, "")
	if err != nil {
		return nil, err
	}
	b.check = checkSortFit
	return b, inLayer("fit", b.check(ref))
}

// setupScanPaths: sort sorted lists once, then scan them read-only many
// times, profiled in paths mode. The snapshot memo almost always hits,
// path counters replace per-access events, and VM dispatch carries the
// run. The oracle is an events-mode profile of the same program.
func setupScanPaths(r *run) (bench, error) {
	src := workloads.RunningExampleScanned(workloads.Sorted, 257, 16, 2, 256)
	if r.small {
		src = workloads.RunningExampleScanned(workloads.Sorted, 65, 16, 2, 32)
	}
	b, _, err := setupProfile(r, src, algoprof.ModePaths, algoprof.ModeEvents)
	return b, err
}

// setupProfile compiles src and computes the references: a plain run's
// outputs, and the profile under refMode ("" = the measured mode), which
// also warms the profiler up. It returns the reference profile too.
func setupProfile(r *run, src, mode, refMode string) (*profileBench, *algoprof.Profile, error) {
	prog, err := r.compile(src)
	if err != nil {
		return nil, nil, err
	}
	b := &profileBench{prog: prog, cfg: algoprof.Config{Seed: r.seed, Mode: mode}}
	if b.plain, err = runPlain(prog, r.seed); err != nil {
		return nil, nil, err
	}
	if r.layer["instrument.sites"], err = staticSites(prog, mode); err != nil {
		return nil, nil, err
	}
	r.layer["vm.instrs"] = float64(b.plain.instrs)

	refCfg := b.cfg
	if refMode != "" {
		refCfg.Mode = refMode
	}
	p, err := algoprof.RunProgram(prog, refCfg)
	if err != nil {
		return nil, nil, inLayer("core", err)
	}
	if b.ref, err = profileBytes(p); err != nil {
		return nil, nil, err
	}
	return b, p, nil
}

func (b *profileBench) measure(deadline time.Time, r *run) error {
	r.measureSeq(deadline, checkedPlain(b.prog, b.cfg.Seed, b.plain),
		func(op, root int, traced bool) (func() error, error) {
			var p *algoprof.Profile
			var err error
			if traced {
				p, err = layered(r.tr, op, root, b.prog, b.cfg)
			} else {
				p, err = algoprof.RunProgram(b.prog, b.cfg)
			}
			if err != nil {
				return nil, err
			}
			return func() error { return b.verify(r, p) }, nil
		}, nil)
	if r.tr != nil {
		vmRun := median(r.plain)
		profiled := r.meanSelf("vm")
		r.layer["profile_s"] = median(r.ops)
		r.layer["vm.run_s"] = vmRun
		r.layer["vm.ns_per_instr"] = ratio(vmRun*1e9, r.layer["vm.instrs"])
		r.layer["core.self_s"] = profiled - vmRun
		r.layer["core.ns_per_event"] = ratio((profiled-vmRun)*1e9, r.layer["core.events"])
	}
	return nil
}

func (b *profileBench) close() error { return nil }

// verify checks one operation's profile: the plain run's outputs, the
// set-up's reference bytes, the workload's oracle, and exact counters.
func (b *profileBench) verify(r *run, p *algoprof.Profile) error {
	if !slices.Equal(p.Stdout, b.plain.stdout) || !slices.Equal(p.Output, b.plain.output) {
		return fmt.Errorf("profiled program output differs from the plain run's")
	}
	got, err := profileBytes(p)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, b.ref) {
		return fmt.Errorf("profile differs from the set-up's reference profile")
	}
	if b.check != nil {
		if err := b.check(p); err != nil {
			return err
		}
	}
	return r.sameCounters(profileCounters(p, b.plain.instrs))
}

// checkSortFit is the paper's Figure 1a: insertion sort of random input
// costs 0.25·n² steps.
func checkSortFit(p *algoprof.Profile) error {
	alg := p.Find("List.sort/loop1")
	if alg == nil {
		return fmt.Errorf("no List.sort/loop1 algorithm")
	}
	for _, cf := range alg.CostFunctions {
		if strings.Contains(cf.InputLabel, "Node") {
			if cf.Model != "n^2" || math.Abs(cf.Coeff-0.25) > 0.08 {
				return fmt.Errorf("sort cost %s (coefficient %.3f), want n^2 with coefficient ≈0.25", cf.Model, cf.Coeff)
			}
			return nil
		}
	}
	return fmt.Errorf("sort has no cost function over its Node input")
}

// profileCounters are a profile's exact counters: on one seed they repeat
// exactly.
func profileCounters(p *algoprof.Profile, plainInstrs uint64) map[string]float64 {
	prof, groups := p.Raw()
	hits, misses := prof.Registry().MemoStats()
	return map[string]float64{
		"vm.probe_instrs":         float64(p.Instructions) - float64(plainInstrs),
		"core.events":             float64(p.EventCount()),
		"core.live_mb":            float64(prof.LiveBytes()) / 1e6,
		"snapshot.memo_hits":      float64(hits),
		"snapshot.memo_misses":    float64(misses),
		"snapshot.memo_hit_ratio": ratio(float64(hits), float64(hits+misses)),
		"group.algorithms":        float64(len(groups.Algorithms)),
	}
}

// profileBytes is the part of a profile's JSON both profiling modes must
// agree on: everything but the executed-instruction count, which differs
// by construction (paths mode fuses probes into superinstructions).
func profileBytes(p *algoprof.Profile) ([]byte, error) {
	return json.Marshal(struct {
		Algorithms      []algoprof.Algorithm
		Stdout, Output  []string
		DegradedReasons []string
	}{p.Algorithms, p.Stdout, p.Output, p.DegradedReasons})
}

// layered profiles prog with the calls algoprof.RunProgram makes for a
// single-threaded, unverified run, one span per layer, and assembles the
// profile the library would return.
func layered(tr *tracer, op, parent int, prog *bytecode.Program, cfg algoprof.Config) (*algoprof.Profile, error) {
	sp := tr.begin("instrument", op, parent)
	ins, err := instrument.Instrument(prog, instrumentMode(cfg.Mode))
	tr.end(sp)
	if err != nil {
		return nil, inLayer("instrument", err)
	}
	prof := core.NewProfiler(ins, core.Options{})
	machine := vm.New(ins.Prog, vm.Config{
		Listener: prof,
		Plan:     ins.Plan,
		NumSites: ins.NumSites(),
		Seed:     cfg.Seed,
		Input:    cfg.Input,
	})
	// The vm span includes the core listener's callbacks; core.self_s
	// subtracts a plain run.
	sp = tr.begin("vm", op, parent)
	err = machine.Run()
	prof.Finish()
	tr.end(sp)
	if err != nil {
		return nil, inLayer("vm", err)
	}
	if errs := prof.Errors(); len(errs) > 0 {
		return nil, inLayer("core", errs[0])
	}
	sp = tr.begin("group", op, parent)
	groups := group.AnalyzeWith(prof, group.Options{})
	tr.end(sp)
	sp = tr.begin("classify", op, parent)
	classify.Classify(prof, groups)
	tr.end(sp)
	sp = tr.begin("fit", op, parent)
	for _, alg := range groups.Algorithms {
		report.FitSeries(alg)
	}
	tr.end(sp)

	// The library's assembly of the public profile (it repeats the three
	// analysis calls above) stays outside the spans.
	p := algoprof.FromProfiler(prof)
	p.Stdout = machine.Stdout
	p.Instructions = machine.TotalInstructions()
	for _, v := range machine.Output {
		p.Output = append(p.Output, v.String())
	}
	p.DegradedReasons = prof.DegradedReasons()
	p.Degraded = len(p.DegradedReasons) > 0
	return p, nil
}

func instrumentMode(mode string) instrument.Mode {
	if mode == algoprof.ModePaths {
		return instrument.Paths
	}
	return instrument.Optimized
}

// staticSites counts the probe instructions instrumenting prog for mode
// inserts.
func staticSites(prog *bytecode.Program, mode string) (float64, error) {
	ins, err := instrument.Instrument(prog, instrumentMode(mode))
	if err != nil {
		return 0, inLayer("instrument", err)
	}
	n := 0
	for _, fn := range ins.Prog.Funcs {
		for _, in := range fn.Code {
			if in.Op.IsProbe() {
				n++
			}
		}
	}
	return float64(n), nil
}

// runPlain runs prog uninstrumented, with no listener.
func runPlain(prog *bytecode.Program, seed uint64) (plainResult, error) {
	m := vm.New(prog, vm.Config{Seed: seed})
	if err := m.Run(); err != nil {
		return plainResult{}, inLayer("vm", err)
	}
	res := plainResult{stdout: m.Stdout, instrs: m.InstrCount}
	for _, v := range m.Output {
		res.output = append(res.output, v.String())
	}
	return res, nil
}

// checkedPlain returns a plain run of prog whose outputs and instruction
// count must repeat want's.
func checkedPlain(prog *bytecode.Program, seed uint64, want plainResult) func() error {
	return func() error {
		got, err := runPlain(prog, seed)
		if err == nil && (got.instrs != want.instrs || !slices.Equal(got.stdout, want.stdout) || !slices.Equal(got.output, want.output)) {
			err = fmt.Errorf("plain run differs from the set-up's: %d instructions, want %d", got.instrs, want.instrs)
		}
		return err
	}
}
