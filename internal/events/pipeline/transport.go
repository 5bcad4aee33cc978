package pipeline

import "algoprof/internal/events"

// Transport is a synchronous fan-out: every event emitted into it is
// encoded once as a Record and dispatched, in emission order, to each
// attached consumer before the emitting call returns. It implements
// events.Listener, events.PathListener and events.Journal, so it can be
// handed to the VM (or the probe API) directly, with its Instr method as
// the VM's InstrHook. All methods must be called from one goroutine.
type Transport struct {
	consumers []*Consumer
	// rec is the one record every emit fills and dispatches, so emitting
	// allocates nothing. Consumers see it only for the duration of their
	// call (see RecordTap); a transport serves one thread.
	rec Record
	// clock, if bound, stamps each record with the VM instruction counter.
	clock *uint64
	// touch is the consumer that answers SiteTouch calls: the first
	// path-aware decoded consumer.
	touch *Consumer
}

// Consumer is one listener attached to a Transport.
type Consumer struct {
	listener events.Listener
	instr    InstrListener       // non-nil iff listener wants OpInstr ticks
	pathL    events.PathListener // non-nil iff listener wants path-counter records
	raw      RecordTap           // non-nil: listener takes raw records instead
	plan     *events.Plan
	clock    uint64
}

// New creates an empty Transport.
func New() *Transport { return &Transport{} }

// Add attaches a listener. A non-nil plan filters method/field/alloc/
// array/io records to those the plan enables, so a VM running under a
// wider plan can feed a consumer that expects the plan's event subset;
// loop records are never filtered, matching the VM's own gating. The
// listener receives OpInstr ticks iff it implements InstrListener, path
// counters iff it implements events.PathListener, and raw records instead
// of listener calls iff it implements RecordTap.
func (t *Transport) Add(l events.Listener, plan *events.Plan) *Consumer {
	c := &Consumer{listener: l, plan: plan}
	if il, ok := l.(InstrListener); ok {
		c.instr = il
	}
	if pl, ok := l.(events.PathListener); ok {
		c.pathL = pl
	}
	if rt, ok := l.(RecordTap); ok {
		c.raw = rt
	}
	if c.pathL != nil && c.raw == nil && t.touch == nil {
		t.touch = c
	}
	t.consumers = append(t.consumers, c)
	return c
}

// BindClock makes every subsequent record carry *counter at emission
// time. Bind the VM's &InstrCount so clock-dependent consumers (CCT) read
// the same timestamps live as they do on replay.
func (t *Transport) BindClock(counter *uint64) { t.clock = counter }

// Dispatch delivers one record to every consumer, applying each
// consumer's plan filter. Emitting methods call it with the transport's
// scratch record, refilled per event; offline replay calls it with
// decoded records in recorded order.
func (t *Transport) Dispatch(r *Record) {
	for _, c := range t.consumers {
		c.dispatch(r)
	}
}

func (t *Transport) emit(r Record) {
	if t.clock != nil {
		r.Clock = *t.clock
	}
	t.rec = r
	t.Dispatch(&t.rec)
}

// Clock returns the instruction counter stamped on the record the
// consumer is currently processing (or last processed). Clock-dependent
// listeners read this instead of the live VM counter, so live and
// replayed runs see identical timestamps.
func (c *Consumer) Clock() uint64 { return c.clock }

// dispatch decodes one record and invokes the listener, applying the
// consumer's plan filter.
func (c *Consumer) dispatch(r *Record) {
	c.clock = r.Clock
	if c.raw != nil {
		c.raw.Record(r)
		return
	}
	p := c.plan
	switch r.Op {
	case OpInstr:
		if c.instr != nil {
			c.instr.Instr(int(r.ID), int(r.Ent))
		}
	case OpLoopEntry:
		c.listener.LoopEntry(int(r.ID))
	case OpLoopBack:
		c.listener.LoopBack(int(r.ID))
	case OpLoopExit:
		c.listener.LoopExit(int(r.ID))
	case OpMethodEntry:
		if p == nil || p.WantsMethod(int(r.ID)) {
			c.listener.MethodEntry(int(r.ID))
		}
	case OpMethodExit:
		if p == nil || p.WantsMethod(int(r.ID)) {
			c.listener.MethodExit(int(r.ID))
		}
	case OpFieldGet:
		if p == nil || p.WantsField(int(r.ID)) {
			c.listener.FieldGet(r.E1, int(r.ID))
		}
	case OpFieldPut:
		if p == nil || p.WantsField(int(r.ID)) {
			c.listener.FieldPut(r.E1, int(r.ID), r.E2)
		}
	case OpArrayLoad:
		if p == nil || p.Arrays {
			c.listener.ArrayLoad(r.E1)
		}
	case OpArrayStore:
		if p == nil || p.Arrays {
			c.listener.ArrayStore(r.E1, r.E2)
		}
	case OpAlloc:
		if p == nil || p.WantsAlloc(int(r.ID)) {
			c.listener.Alloc(r.E1, int(r.ID))
		}
	case OpInputRead:
		if p == nil || p.IO {
			c.listener.InputRead()
		}
	case OpOutputWrite:
		if p == nil || p.IO {
			c.listener.OutputWrite()
		}
	case OpPathCount:
		if c.pathL != nil {
			c.pathL.LoopPathCount(int(r.ID), int(r.Ent), r.Aux)
		}
	}
}

// Instr emits a per-instruction tick. Wire this as the VM's InstrHook
// when a consumer (the basic-block baseline) implements InstrListener.
func (t *Transport) Instr(methodID, pc int) {
	t.emit(Record{Op: OpInstr, ID: int32(methodID), Ent: int64(pc)})
}

// AllocEntity implements events.Journal: it emits an entity-birth record
// carrying the layout a trace writer needs (type name, class id,
// capacity, element mode). Wire the transport as the frontend's Journal
// only when a RecordTap consumer is attached — no one else reads these.
func (t *Transport) AllocEntity(e events.Entity, mode events.ElemMode) {
	t.emit(Record{
		Op:  OpJrnlAlloc,
		ID:  int32(e.ClassID()),
		Ent: entID(e),
		Aux: int64(e.Capacity()),
		E1:  e,
		Kx:  uint8(mode),
		KS:  e.TypeName(),
	})
}

// ArrayStoreAt implements events.Journal: it emits one indexed array
// element store with the stored value, so a replayed shadow heap can apply
// the exact mutation the live heap saw.
func (t *Transport) ArrayStoreAt(arr events.Entity, idx int, key events.ElemKey, newTarget events.Entity) {
	r := Record{Op: OpJrnlStore, ID: int32(idx), Ent: entID(arr), Aux: entID(newTarget), E1: arr, E2: newTarget}
	switch k := key.(type) {
	case int64:
		r.Kx, r.KI = KeyInt, k
	case string:
		r.Kx, r.KS = KeyStr, k
	}
	t.emit(r)
}

// LoopEntry implements events.Listener.
func (t *Transport) LoopEntry(id int) { t.emit(Record{Op: OpLoopEntry, ID: int32(id)}) }

// LoopBack implements events.Listener.
func (t *Transport) LoopBack(id int) { t.emit(Record{Op: OpLoopBack, ID: int32(id)}) }

// LoopExit implements events.Listener.
func (t *Transport) LoopExit(id int) { t.emit(Record{Op: OpLoopExit, ID: int32(id)}) }

// MethodEntry implements events.Listener.
func (t *Transport) MethodEntry(id int) { t.emit(Record{Op: OpMethodEntry, ID: int32(id)}) }

// MethodExit implements events.Listener.
func (t *Transport) MethodExit(id int) { t.emit(Record{Op: OpMethodExit, ID: int32(id)}) }

// FieldGet implements events.Listener.
func (t *Transport) FieldGet(obj events.Entity, fieldID int) {
	t.emit(Record{Op: OpFieldGet, ID: int32(fieldID), Ent: entID(obj), E1: obj})
}

// FieldPut implements events.Listener.
func (t *Transport) FieldPut(obj events.Entity, fieldID int, newTarget events.Entity) {
	t.emit(Record{Op: OpFieldPut, ID: int32(fieldID), Ent: entID(obj), Aux: entID(newTarget), E1: obj, E2: newTarget})
}

// ArrayLoad implements events.Listener.
func (t *Transport) ArrayLoad(arr events.Entity) {
	t.emit(Record{Op: OpArrayLoad, Ent: entID(arr), E1: arr})
}

// ArrayStore implements events.Listener.
func (t *Transport) ArrayStore(arr events.Entity, newTarget events.Entity) {
	t.emit(Record{Op: OpArrayStore, Ent: entID(arr), Aux: entID(newTarget), E1: arr, E2: newTarget})
}

// Alloc implements events.Listener.
func (t *Transport) Alloc(obj events.Entity, classID int) {
	t.emit(Record{Op: OpAlloc, ID: int32(classID), Ent: entID(obj), E1: obj})
}

// LoopPathCount implements events.PathListener: path counters are records
// like any other, so consumers see them in stream order.
func (t *Transport) LoopPathCount(loopID, pathID int, count int64) {
	t.emit(Record{Op: OpPathCount, ID: int32(loopID), Ent: int64(pathID), Aux: count})
}

// SiteTouch implements events.PathListener. Unlike every other event it
// needs an answer, so it is not a record: the first path-aware decoded
// consumer answers it directly. With no such consumer attached every site
// stays unresolved, which only costs repeat calls.
func (t *Transport) SiteTouch(site int, obj events.Entity) bool {
	if t.touch == nil {
		return false
	}
	return t.touch.pathL.SiteTouch(site, obj)
}

// InputRead implements events.Listener.
func (t *Transport) InputRead() { t.emit(Record{Op: OpInputRead}) }

// OutputWrite implements events.Listener.
func (t *Transport) OutputWrite() { t.emit(Record{Op: OpOutputWrite}) }

var (
	_ events.Journal      = (*Transport)(nil)
	_ events.PathListener = (*Transport)(nil)
)

func entID(e events.Entity) int64 {
	if e == nil {
		return 0
	}
	return int64(e.EntityID())
}
