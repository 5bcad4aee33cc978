package trace

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"algoprof/internal/events/pipeline"
)

// chunkFrames is how many frames one parallel-replay work unit covers.
// Frames parse independently (string tables and clock bases are
// frame-local), so the chunk size only balances scheduling overhead against
// load skew.
const chunkFrames = 8

// NumFrames returns how many frames the trace holds (data and checkpoint
// frames both count; frame indices given to ReplayRange and ProveRange are
// positions in this sequence).
func (r *Reader) NumFrames() int { return len(r.frameOff) }

// Checkpoints returns the frame indices of the trace's heap-checkpoint
// frames, ascending. Empty for v1 traces and recovered (truncated) traces.
func (r *Reader) Checkpoints() []int {
	return append([]int(nil), r.ckpts...)
}

// framePayload reads frame f, inflating it through z (see readFrame).
func (r *Reader) framePayload(f int, z *inflater) ([]byte, error) {
	payload, _, err := readFrame(r.data, r.frameOff[f], z)
	return payload, err
}

// ReplayRange replays only the records of frames [lo, hi), dispatching them
// in recorded order. The shadow heap is seeded from the nearest checkpoint
// frame at or before lo, and the remaining prefix frames are decoded
// silently (heap mutations only, nothing dispatched), so the cost of a
// range replay is O(hi-lo + distance to the previous checkpoint) frames —
// not O(hi). On a v1 trace, which has no checkpoints, the silent catch-up
// starts at frame 0: correct, but the slow path.
//
// Listeners observe exactly what they would observe during the [lo, hi)
// stretch of a full Replay: the heap at each record is the true sequential
// heap state there. As with Replay, a dispatched record is valid only
// during the call.
func (r *Reader) ReplayRange(ctx context.Context, lo, hi int, dispatch func(*pipeline.Record)) error {
	n := len(r.frameOff)
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("trace: frame range [%d,%d) out of bounds (trace has %d frames)", lo, hi, n)
	}
	heap := shadowHeap{}
	z := r.newInflater()
	start := 0
	// The last checkpoint frame c ≤ lo holds the heap state after every
	// record of frames [0, c) — checkpoint frames themselves carry none.
	best := -1
	for _, c := range r.ckpts {
		if c > lo {
			break
		}
		best = c
	}
	if best >= 0 {
		payload, err := r.framePayload(best, z)
		if err != nil {
			return err
		}
		if len(payload) == 0 || payload[0] != tagCheckpoint {
			return frameErr(r.frameOff[best], corruptf("frame %d is not a checkpoint", best))
		}
		if heap, err = decodeCheckpoint(payload); err != nil {
			return frameErr(r.frameOff[best], err)
		}
		start = best + 1
	}
	discard := func(*pipeline.Record) {}
	for f := start; f < hi; f++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		payload, err := r.framePayload(f, z)
		if err != nil {
			return err
		}
		if len(payload) > 0 && payload[0] == tagCheckpoint {
			continue
		}
		d := dispatch
		if f < lo {
			d = discard
		}
		if err := replayFrame(payload, heap, d); err != nil {
			return frameErr(r.frameOff[f], err)
		}
	}
	return nil
}

// parsedFrame locates one frame's records, parsed but not yet bound to a
// heap, within its chunk: they end at recs[end].
type parsedFrame struct {
	off int64 // file offset, for error attribution
	end int
}

// chunkResult is one parallel work unit's output: the records of the
// frames parsed before the first failure, plus that failure (nil if the
// whole chunk parsed).
type chunkResult struct {
	recs   []pipeline.Record
	frames []parsedFrame
	err    error
}

// parseFrame decodes one frame payload without a heap, appending its
// records to recs — including those parsed before any error.
func parseFrame(b []byte, recs []pipeline.Record) ([]pipeline.Record, error) {
	var strs []string
	var clock uint64
	pos := 0
	for pos < len(b) {
		tag, pos2, err := readByte(b, pos)
		if err != nil {
			return recs, err
		}
		pos = pos2
		if tag == tagStrDef {
			n, pos2, err := readUint(b, pos, maxFramePayload, "string length")
			if err != nil {
				return recs, err
			}
			pos = pos2
			if pos+n > len(b) {
				return recs, corruptf("truncated string at %d", pos)
			}
			strs = append(strs, string(b[pos:pos+n]))
			pos += n
			continue
		}
		op := pipeline.Op(tag)
		if op == pipeline.OpNone || op > pipeline.OpJrnlStore {
			return recs, corruptf("unknown event tag %#x at %d", tag, pos-1)
		}
		delta, pos2, err := readUvarint(b, pos)
		if err != nil {
			return recs, err
		}
		pos = pos2
		clock += delta
		rec := pipeline.Record{Op: op, Clock: clock}
		if pos, err = parseBody(b, pos, &rec, strs); err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// parseChunk parses frames [lo, hi) into recs (a recycled buffer, or nil)
// through the calling worker's inflater, skipping checkpoint frames.
// parseFrame copies every string out of the payload, so the parsed
// records never alias z's buffer. It runs to completion once claimed — a
// chunk is small, bounded work, and finishing it keeps the merged
// stream's error prefix deterministic: cancellation acts at the feeder
// (no new chunks) and the merger, never mid-chunk.
func (r *Reader) parseChunk(lo, hi int, z *inflater, recs []pipeline.Record) chunkResult {
	out := chunkResult{recs: recs[:0]}
	for f := lo; f < hi; f++ {
		payload, err := r.framePayload(f, z)
		if err != nil {
			out.err = err
			return out
		}
		if len(payload) > 0 && payload[0] == tagCheckpoint {
			continue
		}
		out.recs, err = parseFrame(payload, out.recs)
		out.frames = append(out.frames, parsedFrame{off: r.frameOff[f], end: len(out.recs)})
		if err != nil {
			out.err = frameErr(r.frameOff[f], err)
			return out
		}
	}
	return out
}

// ReplayParallel is Replay with the per-frame decode work — CRC checks,
// DEFLATE inflation, varint and string-table parsing — fanned out over
// workers goroutines (≤ 0 means GOMAXPROCS). Dispatch order, heap
// mutations, and error behavior are byte-identical to Replay: frames parse
// concurrently into record buffers, and a single merger then binds entity
// ids against one shadow heap and dispatches strictly in recorded order, so
// a listener that walks the entity graph at record k still observes exactly
// the sequential heap state at k (the replay heap-state invariant).
//
// The first failing chunk cancels its siblings through the context; the
// merger surfaces that first error in stream order. In-flight chunks are
// bounded at 2× workers, so memory stays bounded on long traces.
//
// v1 and recovered (truncated) traces fall back to sequential
// ReplayContext, as does workers == 1.
//
// As with Replay, a dispatched record is valid only during the call.
func (r *Reader) ReplayParallel(ctx context.Context, workers int, dispatch func(*pipeline.Record)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(r.frameOff)
	if workers == 1 || r.stats.Truncated || r.stats.Version == VersionV1 || n <= chunkFrames {
		return r.ReplayContext(ctx, dispatch)
	}
	var wg sync.WaitGroup
	workersDone := make(chan struct{})
	ctx, cancel := context.WithCancelCause(ctx)
	defer func() {
		cancel(nil) // unblock the feeder and workers before waiting for them
		wg.Wait()
		<-workersDone
	}()

	nChunks := (n + chunkFrames - 1) / chunkFrames
	results := make([]chan chunkResult, nChunks)
	for i := range results {
		results[i] = make(chan chunkResult, 1)
	}
	jobs := make(chan int)
	tokens := make(chan struct{}, 2*workers)
	// free recycles dispatched chunks' record buffers to the workers; it
	// holds as many as there can be chunks in flight.
	free := make(chan []pipeline.Record, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := r.newInflater()
			for i := range jobs {
				var recs []pipeline.Record
				select {
				case recs = <-free:
				default:
				}
				res := r.parseChunk(i*chunkFrames, min((i+1)*chunkFrames, n), z, recs)
				results[i] <- res
				if res.err != nil {
					cancel(res.err)
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := 0; i < nChunks; i++ {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() { wg.Wait(); close(workersDone) }()

	heap := shadowHeap{}
	for i := 0; i < nChunks; i++ {
		if ctx.Err() != nil {
			cause := context.Cause(ctx)
			if errors.Is(cause, context.Canceled) || errors.Is(cause, context.DeadlineExceeded) {
				// The caller cancelled; stop merging immediately.
				return cause
			}
			// A worker hit a real failure in a LATER chunk. Keep merging:
			// every chunk before it was already claimed (jobs go out in
			// order) and will arrive, so the dispatched prefix stays
			// identical to a sequential replay's, ending at the failure.
		}
		var res chunkResult
		// A cancelled context does NOT mean chunk i is lost — only once all
		// workers have exited can an absent result never arrive.
		select {
		case res = <-results[i]:
		case <-workersDone:
			select {
			case res = <-results[i]:
			default:
				// Chunk i was never claimed: the feeder stopped on
				// cancellation before dispatching it.
				return context.Cause(ctx)
			}
		}
		<-tokens
		start := 0
		for _, pf := range res.frames {
			for j := start; j < pf.end; j++ {
				rec := &res.recs[j]
				if err := bindBody(heap, rec); err != nil {
					cancel(err)
					return frameErr(pf.off, err)
				}
				dispatch(rec)
			}
			start = pf.end
		}
		if res.err != nil {
			cancel(res.err)
			return res.err
		}
		select {
		case free <- res.recs:
		default:
		}
	}
	return nil
}
