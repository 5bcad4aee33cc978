package pipeline

import (
	"testing"

	"algoprof/internal/events"
)

// seqListener records the order of per-instruction ticks it receives.
type seqListener struct {
	events.NopListener
	got []int64
}

func (l *seqListener) Instr(methodID, pc int) {
	l.got = append(l.got, int64(methodID)<<32|int64(pc))
}

func TestEveryConsumerSeesEveryRecordInOrder(t *testing.T) {
	for consumers := 1; consumers <= 4; consumers++ {
		tp := New()
		ls := make([]*seqListener, consumers)
		for i := range ls {
			ls[i] = &seqListener{}
			tp.Add(ls[i], nil)
		}
		const n = 10_000
		for i := 0; i < n; i++ {
			tp.Instr(i>>8, i&0xff)
		}
		for ci, l := range ls {
			if len(l.got) != n {
				t.Fatalf("consumers=%d: consumer %d got %d records, want %d", consumers, ci, len(l.got), n)
			}
			for i, v := range l.got {
				if want := int64(i>>8)<<32 | int64(i&0xff); v != want {
					t.Fatalf("consumer %d: record %d = %d, want %d", ci, i, v, want)
				}
			}
		}
	}
}

// loopCounter counts loop events.
type loopCounter struct {
	events.NopListener
	entries, backs, exits int
}

func (l *loopCounter) LoopEntry(int) { l.entries++ }
func (l *loopCounter) LoopBack(int)  { l.backs++ }
func (l *loopCounter) LoopExit(int)  { l.exits++ }

// TestFanOutDispatchesInline: every consumer has seen an event by the
// time the emitting call returns — the property the core's live-heap
// size measurement relies on.
func TestFanOutDispatchesInline(t *testing.T) {
	tp := New()
	a, b := &loopCounter{}, &loopCounter{}
	tp.Add(a, nil)
	tp.Add(b, nil)
	tp.LoopEntry(1)
	tp.LoopBack(1)
	if a.backs != 1 || b.backs != 1 {
		t.Fatalf("dispatch not inline: a=%d b=%d", a.backs, b.backs)
	}
	tp.LoopExit(1)
	for _, l := range []*loopCounter{a, b} {
		if l.entries != 1 || l.backs != 1 || l.exits != 1 {
			t.Fatalf("counts = %d/%d/%d, want 1/1/1", l.entries, l.backs, l.exits)
		}
	}
}

// planRecorder records which method events survived the consumer filter.
type planRecorder struct {
	events.NopListener
	methods []int
}

func (l *planRecorder) MethodEntry(id int) { l.methods = append(l.methods, id) }

func TestPerConsumerPlanFilter(t *testing.T) {
	plan := events.NewEmptyPlan(4, 0, 0)
	plan.MethodEntryExit[2] = true
	tp := New()
	filtered := &planRecorder{}
	full := &planRecorder{}
	tp.Add(filtered, plan)
	tp.Add(full, nil)
	for id := 0; id < 4; id++ {
		tp.MethodEntry(id)
	}
	if len(filtered.methods) != 1 || filtered.methods[0] != 2 {
		t.Errorf("filtered consumer saw %v, want [2]", filtered.methods)
	}
	if len(full.methods) != 4 {
		t.Errorf("unfiltered consumer saw %v, want all 4", full.methods)
	}
}

func TestClockStamping(t *testing.T) {
	var clock uint64
	tp := New()
	var cons *Consumer
	seen := []uint64{}
	cons = tp.Add(InstrTap{Fn: func(_, _ int) { seen = append(seen, cons.Clock()) }}, nil)
	tp.BindClock(&clock)
	for _, c := range []uint64{5, 9, 42} {
		clock = c
		tp.Instr(0, 0)
	}
	// A dispatched record carries its own clock, as on replay.
	tp.Dispatch(&Record{Op: OpInstr, Clock: 77})
	if len(seen) != 4 || seen[0] != 5 || seen[1] != 9 || seen[2] != 42 || seen[3] != 77 {
		t.Fatalf("clocks = %v, want [5 9 42 77]", seen)
	}
}

// pathRecorder is a path-aware consumer that answers SiteTouch.
type pathRecorder struct {
	events.NopListener
	touches []int
	counts  []int64
}

func (l *pathRecorder) SiteTouch(site int, _ events.Entity) bool {
	l.touches = append(l.touches, site)
	return site%2 == 0
}

func (l *pathRecorder) LoopPathCount(_, _ int, count int64) { l.counts = append(l.counts, count) }

// rawTap collects records verbatim.
type rawTap struct {
	events.NopListener
	ops []Op
}

func (l *rawTap) Record(r *Record) { l.ops = append(l.ops, r.Op) }

// TestSiteTouchAndRawTaps: the first path-aware decoded consumer answers
// SiteTouch, every path-aware consumer gets path counters, and a raw tap
// gets every record — journal records included — instead of listener
// calls.
func TestSiteTouchAndRawTaps(t *testing.T) {
	tp := New()
	if tp.SiteTouch(0, nil) {
		t.Fatal("SiteTouch with no path-aware consumer answered true")
	}
	raw := &rawTap{}
	first, second := &pathRecorder{}, &pathRecorder{}
	tp.Add(raw, nil)
	tp.Add(first, nil)
	tp.Add(second, nil)
	if !tp.SiteTouch(4, nil) || tp.SiteTouch(3, nil) {
		t.Error("SiteTouch answers do not come from the path-aware consumer")
	}
	if len(first.touches) != 2 || len(second.touches) != 0 {
		t.Errorf("touches: first=%v second=%v, want only the first consumer asked", first.touches, second.touches)
	}
	tp.LoopPathCount(1, 2, 7)
	tp.ArrayStoreAt(nil, 0, int64(3), nil)
	for _, l := range []*pathRecorder{first, second} {
		if len(l.counts) != 1 || l.counts[0] != 7 {
			t.Errorf("path counts = %v, want [7]", l.counts)
		}
	}
	if len(raw.ops) != 2 || raw.ops[0] != OpPathCount || raw.ops[1] != OpJrnlStore {
		t.Errorf("raw tap saw %v, want [OpPathCount OpJrnlStore]", raw.ops)
	}
}

// countTap counts raw records without keeping them.
type countTap struct {
	events.NopListener
	n int
}

func (l *countTap) Record(*Record) { l.n++ }

// testEnt is a minimal heap entity.
type testEnt struct{ id uint64 }

func (e *testEnt) EntityID() uint64                    { return e.id }
func (e *testEnt) TypeName() string                    { return "int[]" }
func (e *testEnt) ClassID() int                        { return -1 }
func (e *testEnt) IsArray() bool                       { return true }
func (e *testEnt) Capacity() int                       { return 4 }
func (e *testEnt) ForEachRef(func(int, events.Entity)) {}
func (e *testEnt) ForEachElemKey(func(events.ElemKey)) {}

// TestEmitAllocatesNothing: every emit fills the transport's one scratch
// record, so a raw tap and a decoded listener receive the whole stream —
// entity-bearing and journal records included — with no heap allocation
// per event.
func TestEmitAllocatesNothing(t *testing.T) {
	var clock uint64
	tp := New()
	tap, loops := &countTap{}, &loopCounter{}
	tp.Add(tap, nil)
	tp.Add(loops, nil)
	tp.BindClock(&clock)
	obj, arr := &testEnt{id: 1}, &testEnt{id: 2}
	var key events.ElemKey = int64(1 << 40)
	const perRun = 9
	allocs := testing.AllocsPerRun(1000, func() {
		clock++
		tp.LoopEntry(1)
		tp.LoopBack(1)
		tp.AllocEntity(arr, events.ElemModeAuto)
		tp.Alloc(obj, 2)
		tp.FieldPut(obj, 3, arr)
		tp.ArrayStoreAt(arr, 0, key, nil)
		tp.ArrayLoad(arr)
		tp.LoopPathCount(1, 2, 3)
		tp.LoopExit(1)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per %d events, want 0", allocs, perRun)
	}
	if runs := loops.entries; tap.n != perRun*runs || loops.exits != runs || runs == 0 {
		t.Errorf("raw tap saw %d records and the listener %d/%d loop entries/exits; want %d records", tap.n, loops.entries, loops.exits, perRun*runs)
	}
}
