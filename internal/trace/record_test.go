package trace_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"algoprof"
	"algoprof/internal/events/pipeline"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

// compressed is the capture configuration the run store uses.
var compressed = trace.WriterOptions{Compress: true}

func record(tb testing.TB, src string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := algoprof.Record(src, algoprof.Config{}, &buf, compressed); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func open(tb testing.TB, data []byte) *trace.Reader {
	tb.Helper()
	r, err := trace.NewReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestReplayAllocatesPerFrame: sequential, range and parallel replay
// reuse one record per frame and one inflater per decoding goroutine, so
// replaying a compressed trace allocates per frame (and per journaled
// entity), never per record.
func TestReplayAllocatesPerFrame(t *testing.T) {
	r := open(t, record(t, workloads.RunningExample(workloads.Random, 128, 8, 2)))
	st := r.Stats()
	if st.Frames < 4 {
		t.Fatalf("trace has %d frames; the check needs several", st.Frames)
	}
	budget := float64(st.Records / 100)
	var n uint64
	count := func(*pipeline.Record) { n++ }
	for _, c := range []struct {
		name   string
		replay func() error
	}{
		{"sequential", func() error { return r.Replay(count) }},
		{"range", func() error { return r.ReplayRange(context.Background(), 0, r.NumFrames(), count) }},
		{"parallel", func() error { return r.ReplayParallel(context.Background(), 2, count) }},
	} {
		var err error
		allocs := testing.AllocsPerRun(2, func() {
			n = 0
			err = c.replay()
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n != st.Records {
			t.Fatalf("%s replay dispatched %d of %d records", c.name, n, st.Records)
		}
		if allocs >= budget {
			t.Errorf("%s replay of %d records in %d frames made %.0f allocations, want < %.0f", c.name, st.Records, st.Frames, allocs, budget)
		}
	}
}

// TestRecordTwiceIdentical: recording the same program back to back
// yields byte-identical traces with one Merkle root, and later recordings
// compress with the coder an earlier writer returned to the pool.
func TestRecordTwiceIdentical(t *testing.T) {
	src := workloads.RunningExample(workloads.Random, 48, 8, 1)
	const runs = 8
	var traces [][]byte
	built := trace.CountCoders(func() {
		for i := 0; i < runs; i++ {
			traces = append(traces, record(t, src))
		}
	})
	want, _ := open(t, traces[0]).MerkleRoot()
	for i, data := range traces[1:] {
		if !bytes.Equal(data, traces[0]) {
			t.Fatalf("recording %d differs from the first (%d vs %d bytes)", i+1, len(data), len(traces[0]))
		}
		if root, ok := open(t, data).MerkleRoot(); !ok || root != want {
			t.Fatalf("recording %d has Merkle root %x, want %x", i+1, root, want)
		}
	}
	if built >= runs {
		t.Errorf("%d recordings built %d DEFLATE coders; closed writers should hand theirs on", runs, built)
	}
}

// memSink collects per-thread traces in memory.
type memSink struct {
	mu   sync.Mutex
	bufs map[int]*bytes.Buffer
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func (s *memSink) open(tid int) (io.WriteCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &bytes.Buffer{}
	s.bufs[tid] = b
	return nopCloser{b}, nil
}

// TestThreadedRecordSharesCoders: spawned threads seal their traces on
// their own goroutines, so their writers take coders from, and return
// them to, the shared pool concurrently (run it under -race). Every
// thread's trace still comes out byte-identical across recordings.
func TestThreadedRecordSharesCoders(t *testing.T) {
	src := workloads.Threaded(3, 24)
	recordAll := func() map[string][]byte {
		sink := &memSink{bufs: map[int]*bytes.Buffer{}}
		var main bytes.Buffer
		if _, err := algoprof.RecordSinkContext(context.Background(), src, algoprof.Config{}, &main, compressed, sink.open); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{"main": main.Bytes()}
		for tid, b := range sink.bufs {
			out[fmt.Sprintf("t%d", tid)] = b.Bytes()
		}
		return out
	}
	first := recordAll()
	if len(first) != 4 {
		t.Fatalf("recorded %d traces, want main + 3 threads", len(first))
	}
	for i := 0; i < 3; i++ {
		again := recordAll()
		for name, data := range first {
			if !bytes.Equal(again[name], data) {
				t.Fatalf("recording %d: trace %s differs", i+1, name)
			}
			if _, err := trace.NewReader(again[name]); err != nil {
				t.Fatalf("recording %d: trace %s: %v", i+1, name, err)
			}
		}
	}
}

// The record/replay pair below is the trace layer's share of the
// perfbench record-replay workload: the running example at n < 128,
// compressed.
var benchSrc = workloads.RunningExample(workloads.Random, 128, 8, 2)

func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(b, benchSrc)
	}
}

func BenchmarkTraceReplay(b *testing.B) {
	r := open(b, record(b, benchSrc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Replay(func(*pipeline.Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}
