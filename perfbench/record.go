package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"algoprof"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/trace"
	"algoprof/internal/trace/store"
	"algoprof/internal/workloads"
)

// recordBench measures trace capture and replay: an operation is one
// store.Record of the running example (a compressed v2 trace) followed by
// one store.Replay of that run. A traced operation also records into
// memory and replays from memory, so that encoding and persistence, and
// decoding and loading, separate.
type recordBench struct {
	src   string
	prog  *bytecode.Program
	cfg   algoprof.Config
	topts trace.WriterOptions
	st    *store.Store
	plain plainResult
}

// setupRecordReplay: DEFLATE and record encoding dominate recording, and
// replay reads the trace back with the VM idle, so this workload writes
// and reads the trace layer side by side.
func setupRecordReplay(r *run) (bench, error) {
	src := workloads.RunningExample(workloads.Random, 128, 8, 2)
	if r.small {
		src = workloads.RunningExample(workloads.Random, 32, 8, 2)
	}
	prog, err := r.compile(src)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return nil, inLayer("store", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, inLayer("store", err)
	}
	b := &recordBench{
		src:   src,
		prog:  prog,
		cfg:   algoprof.Config{Seed: r.seed, Mode: algoprof.ModeEvents},
		topts: trace.WriterOptions{Compress: true},
		st:    st,
	}
	if b.plain, err = runPlain(prog, r.seed); err != nil {
		return nil, err
	}
	r.layer["vm.instrs"] = float64(b.plain.instrs)
	if r.layer["instrument.sites"], err = staticSites(prog, algoprof.ModeEvents); err != nil {
		return nil, err
	}
	// Warm up with one checked round trip.
	if err := b.roundTrip(r, "warmup", -1, -1); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *recordBench) measure(deadline time.Time, r *run) error {
	r.measureSeq(deadline, checkedPlain(b.prog, b.cfg.Seed, b.plain),
		func(op, root int, _ bool) (func() error, error) {
			return nil, b.roundTrip(r, fmt.Sprintf("op%d", op), op, root)
		},
		func() error { return b.inMemory(r) })
	if r.tr != nil {
		profile := r.meanSelf("profile")
		encode := r.meanSelf("trace.record")
		record := r.meanSelf("store.record")
		decode := r.meanSelf("trace.replay")
		replay := r.meanSelf("store.replay")
		r.layer["vm.run_s"] = median(r.plain)
		r.layer["vm.ns_per_instr"] = ratio(median(r.plain)*1e9, r.layer["vm.instrs"])
		r.layer["profile_s"] = profile
		r.layer["trace.encode_s"] = encode - profile
		r.layer["trace.replay_s"] = decode
		r.layer["store.persist_s"] = record - encode
		r.layer["store.load_s"] = replay - decode
		r.layer["record_s"] = record
		r.layer["replay_s"] = replay
	}
	return nil
}

// roundTrip records and replays one stored run, checks that the replayed
// profile is byte-identical to the recorded one, and removes the run.
func (b *recordBench) roundTrip(r *run, name string, op, parent int) error {
	sp := r.tr.begin("store.record", op, parent)
	rec, err := b.st.Record(name, b.src, "record-replay", b.cfg, b.topts)
	r.tr.end(sp)
	if err != nil {
		return inLayer("store", err)
	}
	defer os.RemoveAll(rec.Dir)
	sp = r.tr.begin("store.replay", op, parent)
	rep, err := b.st.Replay(name)
	r.tr.end(sp)
	if err != nil {
		return inLayer("store", err)
	}
	want, err := rec.Profile.JSON()
	if err != nil {
		return err
	}
	got, err := rep.Profile.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replayed profile differs from the recorded one")
	}
	fi, err := os.Stat(filepath.Join(rec.Dir, store.TraceName))
	if err != nil {
		return inLayer("store", err)
	}
	counters := profileCounters(rec.Profile, b.plain.instrs)
	counters["trace_mb"] = float64(fi.Size()) / 1e6
	return r.sameCounters(counters)
}

// inMemory profiles, records into memory and replays from memory, one
// span each, beside a traced run's stored round trips: encode time is the
// in-memory recording minus the profile, persist time the stored
// recording minus the in-memory one, and likewise for replay.
func (b *recordBench) inMemory(r *run) error {
	const op, root = 0, -1
	sp := r.tr.begin("profile", op, root)
	p, err := algoprof.RunProgram(b.prog, b.cfg)
	r.tr.end(sp)
	if err != nil {
		return inLayer("core", err)
	}
	var buf bytes.Buffer
	sp = r.tr.begin("trace.record", op, root)
	rp, err := algoprof.RecordProgram(b.prog, b.cfg, &buf, b.topts)
	r.tr.end(sp)
	if err != nil {
		return inLayer("trace", err)
	}
	sp = r.tr.begin("trace.replay", op, root)
	tr, err := trace.NewReader(buf.Bytes())
	var replayed *algoprof.Profile
	if err == nil {
		replayed, err = algoprof.ReplayProgram(b.prog, b.cfg, tr)
	}
	r.tr.end(sp)
	if err != nil {
		return inLayer("trace", err)
	}
	for _, q := range []*algoprof.Profile{rp, replayed} {
		if q.EventCount() != p.EventCount() || !sameAlgorithms(q, p) {
			return fmt.Errorf("in-memory record or replay profile differs from the plain profile")
		}
	}
	stats := tr.Stats()
	return r.sameCounters(map[string]float64{
		"trace.records":          float64(stats.Records),
		"trace.frames":           float64(stats.Frames),
		"trace.bytes_per_record": ratio(float64(buf.Len()), float64(stats.Records)),
	})
}

func (b *recordBench) close() error { return os.RemoveAll(b.st.Dir()) }

func sameAlgorithms(a, b *algoprof.Profile) bool {
	ja, errA := json.Marshal(a.Algorithms)
	jb, errB := json.Marshal(b.Algorithms)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
