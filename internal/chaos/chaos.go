// Package chaos drives seeded fault schedules through the whole profiling
// pipeline — record under an adversarial filesystem, watchdog interrupts
// mid-run, replay of whatever landed on disk — and asserts the robustness
// contract: every schedule either succeeds with a profile equal to the
// fault-free baseline, degrades deterministically (same seed, same
// degraded profile, and the stored trace replays to it), or fails with an
// error whose faultinject.FaultClass is typed. Anything else — a panic, an
// unclassified error, a silently wrong profile — is a harness violation,
// never an acceptable outcome.
//
// The package also provides the offline counterpart (audit.go): a
// forensic audit of stored run directories that flags damaged artifacts.
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/trace"
	"algoprof/internal/trace/store"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// Config parameterizes one chaos sweep.
type Config struct {
	// Seeds is how many fault schedules to run (default 16). Schedule i
	// uses seed BaseSeed+i; the seed fully determines the workload, the
	// armed fault points, and every fault draw.
	Seeds int
	// BaseSeed offsets the schedule seeds.
	BaseSeed uint64
	// Dir is the scratch directory; each schedule records into its own
	// subdirectory. The caller owns cleanup.
	Dir string
	// Logf, when non-nil, receives one progress line per schedule.
	Logf func(format string, args ...any)
}

// Outcome is the trichotomy a chaos run must land in.
type Outcome uint8

const (
	// OK: the run completed, the profile equals the fault-free baseline,
	// and the stored run replays to the same profile. Transient faults may
	// have fired and been retried away.
	OK Outcome = iota
	// Degraded: the run completed in degraded mode (e.g. a watchdog halt)
	// — deterministically: the same seed reproduces the same degraded
	// profile, and the stored trace replays to it.
	Degraded
	// Failed: the run (or its replay) failed with a typed-FaultClass
	// error.
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	}
	return "failed"
}

// Result is one schedule's classified outcome.
type Result struct {
	Seed     uint64
	Workload string
	// Faults names the schedule's armed fault points (plus "watchdog" for
	// an injected watchdog interrupt); empty for a clean schedule.
	Faults []string
	Outcome Outcome
	// Class is the fault class of the typed error for Failed outcomes.
	Class faultinject.FaultClass
	// Err is the failure message for Failed outcomes.
	Err string
}

// Report is a sweep's results plus any contract violations. A sweep with
// violations is a bug in the pipeline (or the harness), regardless of how
// the individual schedules classified.
type Report struct {
	Results    []Result
	Violations []string
}

// Counts tallies the outcome trichotomy.
func (r *Report) Counts() (ok, degraded, failed int) {
	for _, res := range r.Results {
		switch res.Outcome {
		case OK:
			ok++
		case Degraded:
			degraded++
		default:
			failed++
		}
	}
	return
}

// Render formats the report for terminals: one line per schedule, then the
// tally and every violation.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, res := range r.Results {
		faults := strings.Join(res.Faults, ",")
		if faults == "" {
			faults = "none"
		}
		fmt.Fprintf(&sb, "seed %-4d %-10s faults=%-28s %s", res.Seed, res.Workload, faults, res.Outcome)
		if res.Outcome == Failed {
			fmt.Fprintf(&sb, " [%s] %s", res.Class, res.Err)
		}
		sb.WriteByte('\n')
	}
	ok, degraded, failed := r.Counts()
	fmt.Fprintf(&sb, "chaos: %d schedules: %d ok, %d degraded, %d failed (typed), %d violations\n",
		len(r.Results), ok, degraded, failed, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "VIOLATION: %s\n", v)
	}
	return sb.String()
}

// Run executes the sweep. The returned error covers only harness setup;
// per-schedule failures land in the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 16
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rep := &Report{}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + uint64(i)
		res := runOne(cfg, seed, rep)
		rep.Results = append(rep.Results, res)
		cfg.Logf("chaos: seed %d %s (%s): %s", seed, res.Workload, strings.Join(res.Faults, ","), res.Outcome)
	}
	return rep, nil
}

// workloadCase is one corpus entry.
type workloadCase struct{ name, src string }

// corpus is the workload set schedules draw from: the paper's running
// example, the sort comparison (recursion + folding), the growth workload
// (journal-heavy), the Listing 4 program, and the threaded workload (two
// spawned VM threads, each with its own event fan-out and trace file).
// The threaded entry must stay last: watchdog schedules exclude it (see
// runOne), because a mid-run halt lands at scheduling-dependent points
// across threads and the degraded-determinism gate would misfire.
func corpus() []workloadCase {
	return []workloadCase{
		{"running", workloads.RunningExample(workloads.Random, 48, 8, 1)},
		{"sorts", workloads.MergeVsInsertion(32, 8, 1)},
		{"growth", workloads.ArrayListGrow(false, 48, 8, 1)},
		{"listing4", workloads.Listing4(24)},
		{"threaded", workloads.Threaded(2, 16)},
	}
}

// schedule is one seed's fault plan: which points to arm and whether (and
// when) the watchdog interrupts the run.
type schedule struct {
	names         []string
	arms          []func(*faultinject.Plan)
	watchdogPolls int
}

func (sc *schedule) fault(name, point string, pc faultinject.PointConfig) {
	sc.names = append(sc.names, name)
	sc.arms = append(sc.arms, func(p *faultinject.Plan) { p.Arm(point, pc) })
}

// newSchedule derives a fault schedule from the seed alone, cycling through
// the four fault families so a modest sweep exercises every outcome class:
// transient faults that retries absorb, watchdog interrupts that degrade,
// resource exhaustion that fails typed, and silent corruption the replay
// CRC (or verifier) must catch.
func newSchedule(seed uint64) schedule {
	mix := seed*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	draw := func(n uint64) uint64 {
		mix += 0x9e3779b97f4a7c15
		z := mix
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % n
	}
	var sc schedule
	switch seed % 4 {
	case 0:
		// Clean or transient: either no faults at all, or a bounded burst
		// of retryable faults the store's retry policy must absorb.
		switch draw(3) {
		case 0: // clean
		case 1:
			sc.fault("fsync-transient", faultinject.PointSync, faultinject.PointConfig{
				Prob: 1, MaxFires: 1 + int(draw(2)), Class: faultinject.Transient, Errno: syscall.EINTR,
			})
		default:
			sc.fault("short-write", faultinject.PointShortWrite, faultinject.PointConfig{
				Prob: 1, MaxFires: 1, Class: faultinject.Transient,
			})
		}
	case 1:
		// Watchdog interrupt mid-run: the VM must halt cleanly and the run
		// must degrade deterministically.
		sc.names = append(sc.names, "watchdog")
		sc.watchdogPolls = 1 + int(draw(4))
	case 2:
		// Resource exhaustion: the run must fail with a typed Resource
		// error (or complete untouched when the low-probability point
		// never fires).
		if draw(2) == 0 {
			sc.fault("trace-enospc", faultinject.PointWrite, faultinject.PointConfig{
				Prob: 0.05, MaxFires: 1, Class: faultinject.Resource,
				Errno: syscall.ENOSPC, PathSuffix: store.TraceName,
			})
		} else {
			sc.fault("rename-emfile", faultinject.PointRename, faultinject.PointConfig{
				Prob: 1, MaxFires: 1, Class: faultinject.Resource, Errno: syscall.EMFILE,
			})
		}
	default:
		// Silent corruption: one bit of the trace flips on disk with no
		// error reported; the replay CRC (or, past it, the invariant
		// verifier) has to flag the artifact instead of producing a
		// plausible-but-wrong profile.
		// Small workloads flush only a handful of frames, so the per-write
		// probability is high enough that most corruption schedules land a
		// flip somewhere in the file.
		sc.fault("trace-bitflip", faultinject.PointBitFlip, faultinject.PointConfig{
			Prob: 0.4, MaxFires: 1, PathSuffix: store.TraceName, Class: faultinject.Corruption,
		})
	}
	return sc
}

// chaosRetry is the store retry policy chaos runs use: the default shape
// with sleeps elided so sweeps stay fast.
var chaosRetry = faultinject.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}

// recordFaulted records one run under the schedule's fault plan into dir
// and returns the stored run (verifier always on).
func recordFaulted(dir string, w workloadCase, sc schedule, seed uint64) (*store.Run, error) {
	plan := faultinject.NewPlan(seed)
	for _, arm := range sc.arms {
		arm(plan)
	}
	s, err := store.OpenFS(dir, plan.FS(faultinject.OS()))
	if err != nil {
		return nil, err
	}
	s.SetRetry(chaosRetry)
	s.SetLogf(nil)
	cfg := algoprof.Config{Seed: seed, Verify: true}
	if sc.watchdogPolls > 0 {
		polls, limit := 0, sc.watchdogPolls
		cfg.Watchdog = func() error {
			polls++
			if polls >= limit {
				return &vm.Halt{Reason: "fault:watchdog"}
			}
			return nil
		}
	}
	return s.Record("run", w.src, "chaos", cfg, trace.WriterOptions{})
}

// runOne executes and classifies one schedule. Panics become violations.
func runOne(cfg Config, seed uint64, rep *Report) (res Result) {
	cases := corpus()
	sc := newSchedule(seed)
	if sc.watchdogPolls > 0 {
		// A shared watchdog halts each thread at a scheduling-dependent
		// point, so threaded degradation is legitimately nondeterministic;
		// keep watchdog schedules on the single-threaded corpus.
		cases = cases[:len(cases)-1]
	}
	w := cases[(seed/4)%uint64(len(cases))]
	res = Result{Seed: seed, Workload: w.name, Faults: sc.names}
	defer func() {
		if r := recover(); r != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("seed %d: panic: %v", seed, r))
			res.Outcome = Failed
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	violation := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("seed %d (%s): %s", seed, w.name, fmt.Sprintf(format, args...)))
	}

	dir := filepath.Join(cfg.Dir, fmt.Sprintf("seed-%d", seed))
	rec, err := recordFaulted(dir, w, sc, seed)
	if err != nil {
		// The run failed outright: the error must be typed, and a verifier
		// error here means faults on the disk path corrupted the in-memory
		// stream — a pipeline bug, not an acceptable failure.
		var verr *verify.Error
		if errors.As(err, &verr) {
			violation("verifier violations during faulted run: %v", verr)
		}
		res.Outcome = Failed
		res.Class = faultinject.ClassOf(err)
		res.Err = err.Error()
		if res.Class == faultinject.Unknown {
			violation("untyped failure: %v", err)
		}
		return res
	}

	// The record completed; whatever landed on disk must now replay — under
	// a clean filesystem — to the recorded profile, or fail typed (silent
	// on-disk corruption caught by the CRC or the verifier).
	clean, err := store.Open(dir)
	if err != nil {
		violation("reopen store: %v", err)
		return res
	}
	clean.SetLogf(nil)
	replayed, err := clean.Replay("run")
	if err != nil {
		res.Outcome = Failed
		res.Class = faultinject.ClassOf(err)
		res.Err = err.Error()
		if res.Class == faultinject.Unknown {
			violation("untyped replay failure: %v", err)
		}
		return res
	}
	if replayed.Profile.Degraded && !rec.Manifest.Degraded {
		// The live run completed clean but its stored trace only replays
		// through the reader's truncation recovery — on-disk damage (e.g. a
		// bit flip in the index region) that the reader detected and
		// declared. Detected corruption, not a silent wrong profile.
		res.Outcome = Failed
		res.Class = faultinject.Corruption
		res.Err = fmt.Sprintf("stored trace damaged on disk; replay recovered a declared-degraded prefix (%s)",
			strings.Join(replayed.Profile.DegradedReasons, ", "))
		return res
	}
	if !algosEqual(rec.Profile, replayed.Profile) {
		violation("stored trace replays to a different profile than the live run")
	}

	if rec.Manifest.Degraded {
		res.Outcome = Degraded
		// Degradation must be deterministic: the same seed, rerun from
		// scratch, must produce the same degraded profile.
		rec2, err2 := recordFaulted(dir+"-replay", w, sc, seed)
		switch {
		case err2 != nil:
			violation("degraded run rerun failed: %v", err2)
		case !algosEqual(rec.Profile, rec2.Profile):
			violation("degraded run is nondeterministic: rerun with the same seed differs")
		case !equalStrings(rec.Manifest.DegradedReasons, rec2.Manifest.DegradedReasons):
			violation("degraded run is nondeterministic: reasons %v vs %v",
				rec.Manifest.DegradedReasons, rec2.Manifest.DegradedReasons)
		}
		return res
	}

	// A non-degraded completion must match the fault-free baseline exactly:
	// absorbed transient faults may cost retries, never fidelity.
	base, err := algoprof.Run(w.src, algoprof.Config{Seed: seed})
	if err != nil {
		violation("baseline run failed: %v", err)
		return res
	}
	if !algosEqual(base, rec.Profile) {
		violation("profile under absorbed faults differs from fault-free baseline")
	}
	res.Outcome = OK
	return res
}

// algosEqual compares two profiles' fitted results (the portable artifact)
// by JSON identity. Degraded-reason lists differ legitimately between a
// live run and its replay, so they are compared separately where required.
func algosEqual(a, b *algoprof.Profile) bool {
	aj, _ := json.Marshal(a.Algorithms)
	bj, _ := json.Marshal(b.Algorithms)
	return string(aj) == string(bj)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
