package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"algoprof"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/service"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

// The job mix: jobs are spread over daemonTenants tenants, every
// daemonPathsEvery-th job runs in paths mode (profile only, not stored),
// and the Table 1 programs are built at the size the paper's table uses.
const (
	daemonTenants    = 4
	daemonPathsEvery = 7
	table1Size       = 24
)

// daemonBench drives an in-process algoprofd — service.New plus its HTTP
// handler on an ephemeral loopback port, local executor — as a closed
// loop: nproc clients each POST /v1/jobs?wait=1 and send the next job only
// when the previous one has returned, as algoprofd callers block on their
// result. An operation is one job round trip.
type daemonBench struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	jobs   []daemonJob // in the seeded order clients cycle through
	seed   uint64
}

// daemonJob is one program of the mix with its request bodies, per mode
// and tenant, and the profile bytes each mode must return.
type daemonJob struct {
	name string
	prog *bytecode.Program
	body [2][daemonTenants][]byte
	want [2][]byte
}

// setupDaemonMix: small programs, so per-job fixed costs dominate — JSON,
// compiling twice, the journal, run-directory and manifest writes — and
// the vm and core layers do little. The only workload that measures the
// service and HTTP layers.
func setupDaemonMix(r *run) (bench, error) {
	type program struct{ name, src string }
	var progs []program
	rows := workloads.Table1()
	if r.small {
		rows = rows[:3]
	}
	for _, row := range rows {
		res, err := workloads.EvaluateRow(row, table1Size, r.seed)
		r.attempted++
		if err != nil || !res.OK() {
			r.fail(fmt.Errorf("table 1 row %s: verdict does not hold: %+v %v", row.Name(), res, err))
		}
		progs = append(progs, program{row.Name(), row.Source(table1Size)})
	}
	progs = append(progs, program{"running-example", workloads.RunningExample(workloads.Random, 32, 8, 1)})
	rand.New(rand.NewSource(int64(r.seed))).Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })

	b := &daemonBench{seed: r.seed}
	var sums map[string]float64
	for _, p := range progs {
		j := daemonJob{name: p.name}
		var err error
		if j.prog, err = r.compile(p.src); err != nil {
			return nil, err
		}
		for m, mode := range []string{algoprof.ModeEvents, algoprof.ModePaths} {
			cfg := algoprof.Config{Seed: r.seed, Mode: mode}
			var prof *algoprof.Profile
			if r.tr != nil && mode == algoprof.ModeEvents {
				prof, err = layered(r.tr, 0, -1, j.prog, cfg)
			} else {
				prof, err = algoprof.RunProgram(j.prog, cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if j.want[m], err = compactJSON(prof); err != nil {
				return nil, err
			}
			if mode == algoprof.ModeEvents {
				plain, err := runPlain(j.prog, r.seed)
				if err != nil {
					return nil, err
				}
				sites, err := staticSites(j.prog, mode)
				if err != nil {
					return nil, err
				}
				sums = addCounters(sums, profileCounters(prof, plain.instrs))
				sums = addCounters(sums, map[string]float64{"vm.instrs": float64(plain.instrs), "instrument.sites": sites})
			}
			for t := range j.body[m] {
				j.body[m][t], err = json.Marshal(service.SubmitRequest{
					Tenant:   fmt.Sprintf("tenant-%d", t),
					Workload: p.name,
					Program:  p.src,
					Config:   service.JobConfig{Mode: mode, Seed: r.seed},
				})
				if err != nil {
					return nil, err
				}
			}
		}
		b.jobs = append(b.jobs, j)
	}
	sums["snapshot.memo_hit_ratio"] = ratio(sums["snapshot.memo_hits"], sums["snapshot.memo_hits"]+sums["snapshot.memo_misses"])
	delete(sums, "core.live_mb")
	for k, v := range sums {
		r.layer[k] = v
	}

	if err := b.start(r.tmp); err != nil {
		b.close()
		return nil, err
	}
	// Check the daemon with one job in each mode; more would make set-up
	// time mostly disk time.
	for mode := range b.jobs[0].want {
		if _, err := b.submit(0, mode, 0); err != nil {
			b.close()
			return nil, inLayer("service", fmt.Errorf("warm-up job %s: %w", b.jobs[0].name, err))
		}
	}
	return b, nil
}

// start opens a fresh store and serves the daemon on an ephemeral port.
func (b *daemonBench) start(tmp string) error {
	var err error
	if b.dir, err = os.MkdirTemp(tmp, "daemon-"); err != nil {
		return inLayer("store", err)
	}
	if b.svc, err = service.New(service.Config{StoreDir: b.dir}); err != nil {
		return inLayer("service", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return inLayer("http", err)
	}
	b.url = "http://" + ln.Addr().String() + "/v1/jobs?wait=1"
	b.srv = &http.Server{Handler: b.svc.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()},
		Timeout:   60 * time.Second,
	}
	return nil
}

// jobResult is one job as its client saw it.
type jobResult struct {
	latency, queueMs, runMs float64
	retries                 int
	traced                  bool
}

// maxRetries bounds how often one job is resubmitted after typed
// backpressure before it counts as failed.
const maxRetries = 1000

// submit sends job i in the given mode (0 events, 1 paths) for tenant t,
// waits for its result, and checks the profile bytes. Typed backpressure
// (429, 503) is retried, as the API asks of callers.
func (b *daemonBench) submit(i, mode, t int) (jobResult, error) {
	j := &b.jobs[i]
	var res jobResult
	t0 := time.Now()
	for {
		resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(j.body[mode][t]))
		if err != nil {
			return res, inLayer("http", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return res, inLayer("http", err)
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && res.retries < maxRetries {
			res.retries++
			time.Sleep(time.Millisecond)
			continue
		}
		res.latency = time.Since(t0).Seconds()
		if resp.StatusCode != http.StatusOK {
			return res, inLayer("service", fmt.Errorf("%s: HTTP %d: %s", j.name, resp.StatusCode, data))
		}
		var sr service.SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return res, inLayer("http", err)
		}
		if len(sr.Jobs) != 1 {
			return res, inLayer("service", fmt.Errorf("%s: %d jobs in response, want 1", j.name, len(sr.Jobs)))
		}
		v := sr.Jobs[0]
		res.queueMs, res.runMs = float64(v.QueueMs), float64(v.RunMs)
		res.retries += max(v.DispatchAttempts-1, 0)
		if v.Status != service.StatusOK {
			return res, inLayer("service", fmt.Errorf("%s: job %s %s: %s", j.name, v.ID, v.Status, v.Error))
		}
		if !bytes.Equal(v.Profile, j.want[mode]) {
			return res, fmt.Errorf("%s: job %s profile differs from the library's", j.name, v.ID)
		}
		return res, nil
	}
}

// daemonRound is how long the clients run between two readings of the
// process's user CPU time, which gives one sample of it per job, and in
// a traced run between two timings of plain runs of the mix. Each round's
// slowdown compares its own job latencies with its own plain runs, so
// that a change of machine speed between rounds cancels out.
const daemonRound = time.Second

// daemonPlainCycles is how many times each round runs every program of
// the mix plain; the programs are small, so one run is a fraction of a
// millisecond.
const daemonPlainCycles = 20

func (b *daemonBench) measure(deadline time.Time, r *run) error {
	var all []jobResult
	var wall float64
	var next atomic.Int64
	// Whole rounds only, so that every sample covers as many jobs.
	for first := true; first || time.Until(deadline) >= daemonRound; first = false {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := userSeconds(), time.Now()
		round := b.loop(r, &next, t0.Add(daemonRound))
		wall += time.Since(t0).Seconds()
		if len(round) > 0 {
			r.opsCPU = append(r.opsCPU, (userSeconds()-c0)/float64(len(round)))
		}
		runtime.ReadMemStats(&m1)
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.gcCycles += m1.NumGC - m0.NumGC
		r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs

		if r.tr == nil {
			all = append(all, round...)
			r.calibrate()
			continue
		}
		// Whole cycles of the mix, so every program weighs the same.
		runtime.GC()
		var plain []float64
		for cycle := 0; cycle < daemonPlainCycles; cycle++ {
			for _, j := range b.jobs {
				if d, ok := r.timePlain(func() error { _, err := runPlain(j.prog, b.seed); return err }); ok {
					plain = append(plain, d)
				}
			}
		}
		var lat []float64
		for _, res := range round {
			lat = append(lat, res.latency)
		}
		if len(lat) > 0 && len(plain) > 0 {
			r.slowdowns = append(r.slowdowns, median(lat)/median(plain))
		}
		all = append(all, round...)
	}

	var latency, queue, runMs, overhead []float64
	retries := 0
	for _, res := range all {
		latency = append(latency, res.latency)
		if res.traced {
			r.tracedOps = append(r.tracedOps, res.latency)
		} else {
			r.ops = append(r.ops, res.latency)
		}
		queue = append(queue, res.queueMs)
		runMs = append(runMs, res.runMs)
		overhead = append(overhead, res.latency*1e3-res.queueMs-res.runMs)
		retries += res.retries
	}
	if r.tr != nil {
		r.layer["jobs_per_s"] = ratio(float64(len(all)), wall)
		r.layer["job_p50_ms"] = median(latency) * 1e3
		r.layer["job_p95_ms"] = quantile(latency, 0.95) * 1e3
		r.layer["service.queue_ms"] = mean(queue)
		r.layer["service.run_ms"] = mean(runMs)
		r.layer["http.overhead_ms"] = mean(overhead)
		r.layer["service.retries"] = float64(retries)
		if fi, err := os.Stat(filepath.Join(b.dir, store.JournalName)); err == nil {
			r.layer["journal.bytes"] = float64(fi.Size())
		}
		// The library layers ran once per program of the mix at set-up:
		// times are means per program, counters sums over the mix.
		r.layer["vm.run_s"] = mean(r.plain)
		r.layer["vm.ns_per_instr"] = ratio(mean(r.plain)*float64(len(b.jobs))*1e9, r.layer["vm.instrs"])
		r.layer["core.self_s"] = r.meanSelf("vm") - mean(r.plain)
	}
	return nil
}

// loop runs the closed loop until end: one client per CPU, each sending its
// next job when the last returns. Job k runs program k mod len(b.jobs) for
// tenant k mod daemonTenants, in paths mode when k mod daemonPathsEvery is
// daemonPathsEvery-1.
func (b *daemonBench) loop(r *run, next *atomic.Int64, end time.Time) []jobResult {
	clients := runtime.NumCPU()
	results := make([][]jobResult, clients)
	errs := make([][]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				k := int(next.Add(1) - 1)
				mode := 0
				if k%daemonPathsEvery == daemonPathsEvery-1 {
					mode = 1
				}
				sp := -1
				traced := r.tr != nil && (k/2)%2 == 0
				if traced {
					sp = r.tr.begin("http", k, -1)
				}
				res, err := b.submit(k%len(b.jobs), mode, k%daemonTenants)
				r.tr.end(sp)
				res.traced = traced
				if err != nil {
					errs[c] = append(errs[c], err)
					continue
				}
				results[c] = append(results[c], res)
			}
		}(c)
	}
	wg.Wait()
	var all []jobResult
	for c := range results {
		all = append(all, results[c]...)
		r.attempted += len(results[c])
		for _, err := range errs[c] {
			r.attempted++
			r.fail(err)
		}
	}
	return all
}

// close stops the HTTP server and drains the daemon, then removes its
// store. It is safe on a partly started bench.
func (b *daemonBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	if b.srv != nil {
		errs = append(errs, b.srv.Shutdown(ctx))
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		b.client.CloseIdleConnections()
	}
	if b.svc != nil {
		errs = append(errs, b.svc.Drain(ctx))
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
	}
	return inLayer("service", errors.Join(errs...))
}

// compactJSON is a profile as algoprofd returns it: the library's JSON,
// compacted.
func compactJSON(p *algoprof.Profile) ([]byte, error) {
	data, err := p.JSON()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func addCounters(sum, c map[string]float64) map[string]float64 {
	if sum == nil {
		sum = map[string]float64{}
	}
	for k, v := range c {
		sum[k] += v
	}
	return sum
}
