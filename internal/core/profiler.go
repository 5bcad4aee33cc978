// Package core implements the algorithmic profiler itself: it consumes the
// event stream of an instrumented execution and incrementally builds the
// repetition tree (the dynamic loop and recursion nesting tree of §2.1),
// attributing high-level costs (algorithmic steps, structure reads/writes,
// element creations, input reads, output writes — §2.2) and input sizes
// (§2.4, §3.4) to each repetition invocation, following the dynamic
// analysis of §3.2 of the AlgoProf paper.
package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"algoprof/internal/events"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/types"
	"algoprof/internal/rectype"
	"algoprof/internal/snapshot"
)

// CostOp is a primitive operation of the cost model (§2.2).
type CostOp uint8

// Cost model operations.
const (
	OpStep     CostOp = iota // one loop iteration or recursive call
	OpArrLoad                // array element read
	OpArrStore               // array element write
	OpGet                    // recursive-structure reference read
	OpPut                    // recursive-structure reference write
	OpNew                    // recursive-type element creation
	OpIn                     // external input read
	OpOut                    // external output write
)

var costOpNames = [...]string{"STEP", "LOAD", "STORE", "GET", "PUT", "NEW", "IN", "OUT"}

// String names the operation like the paper's cost keys.
func (op CostOp) String() string { return costOpNames[op] }

// NoInput is the CostKey.Input for costs not tied to an identified input.
const NoInput = -1

// CostKey identifies one counter in a repetition's cost map, mirroring the
// paper's cost{...} notation: cost{STEP}, cost{input#1, LOAD},
// cost{input#3, Vertex, PUT}, cost{ListNode, NEW}.
type CostKey struct {
	Op    CostOp
	Input int    // input id, or NoInput
	Type  string // type qualifier ("" for untyped counters)
}

// String renders the key like the paper ("cost{input#3, Vertex, PUT}").
func (k CostKey) String() string {
	switch {
	case k.Input == NoInput && k.Type == "":
		return fmt.Sprintf("cost{%s}", k.Op)
	case k.Input == NoInput:
		return fmt.Sprintf("cost{%s, %s}", k.Type, k.Op)
	case k.Type == "":
		return fmt.Sprintf("cost{input#%d, %s}", k.Input, k.Op)
	default:
		return fmt.Sprintf("cost{input#%d, %s, %s}", k.Input, k.Type, k.Op)
	}
}

// NodeKind distinguishes repetition tree nodes.
type NodeKind uint8

// Node kinds.
const (
	KindRoot NodeKind = iota
	KindLoop
	KindRecursion
)

// Invocation is the record of one completed execution of a repetition
// (one entrance-to-exit of a loop, one outermost call of a recursion).
// Keeping the full history per node is what allows cost-function inference
// (§3.3).
type Invocation struct {
	// Index is the invocation's ordinal at its node (0-based).
	Index int
	// ParentIndex is the index of the parent node's invocation that was
	// active when this invocation ran; used to combine child costs into
	// parent invocations (§2.6).
	ParentIndex int
	// Sizes lists input ids (non-canonical; resolve via the registry) with
	// the maximum size measured during this invocation, in first-measured
	// order. A compact pair slice instead of a map: invocations rarely
	// measure more than a couple of inputs, and History keeps one of these
	// per recorded invocation.
	Sizes []SizeEntry

	// costs holds the counters as a dense interned-id vector; the map view
	// is materialized only on demand (Costs).
	costs costVec
	keys  *costInterner
}

// SizeEntry is one measured input size in Invocation.Sizes.
type SizeEntry struct {
	Input int32
	Size  int32
}

// Costs materializes the invocation's cost counters as a map. Counters
// live in a dense interned-id vector during profiling; call this only at
// report time.
func (inv Invocation) Costs() map[CostKey]int64 {
	if inv.keys == nil {
		return map[CostKey]int64{}
	}
	return inv.costs.materialize(inv.keys)
}

// Cost returns one counter without materializing the map.
func (inv Invocation) Cost(k CostKey) int64 {
	if inv.keys == nil {
		return 0
	}
	id, ok := inv.keys.lookup(k)
	if !ok {
		return 0
	}
	return inv.costs.get(id)
}

// EachCost visits every counter in first-recorded order.
func (inv Invocation) EachCost(f func(CostKey, int64)) {
	for _, c := range inv.costs.cells {
		f(inv.keys.keys[c.id], c.n)
	}
}

// NumCosts returns the number of distinct cost keys recorded.
func (inv Invocation) NumCosts() int { return len(inv.costs.cells) }

// Node is a repetition tree node.
type Node struct {
	Kind NodeKind
	// ID is the loop id (KindLoop) or method id (KindRecursion).
	ID     int
	Parent *Node
	// Children in creation order.
	Children []*Node

	// History holds one record per completed invocation (every k-th when
	// sampling is enabled).
	History []Invocation

	// totals aggregates costs over ALL invocations, independent of
	// sampling (interned; see Totals and TotalCost).
	totals costVec
	keys   *costInterner

	childIdx       map[childKey]*Node
	active         []*invocation // stack: same-node invocations can nest under recursion folding
	recursionDepth int
	started        int
}

type childKey struct {
	kind NodeKind
	id   int
}

// invocation is the mutable state of one active invocation.
type invocation struct {
	index       int
	parentIndex int

	costs costVec
	sizes []SizeEntry

	// touched tracks, per input accessed in this invocation and in
	// first-access order, the most recently accessed entity (the starting
	// point for the exit remeasurement, §3.4) and the input's write epoch
	// at its last measurement (so invocations whose inputs were not
	// written skip the exit re-traversal). An invocation touches a
	// handful of inputs at most, so an insertion-ordered association list
	// replaces two maps — and makes the remeasurement order deterministic.
	touched []touchedInput

	// Deferred identification of not-yet-known structures (§3.4,
	// RemeasureInputs): costs are parked and resolved at exit from the
	// first/last accessed references. Groups are keyed by the accessed
	// entity's type name so that structures of different kinds built
	// interleaved in one repetition do not contaminate each other;
	// multi-class structures split across groups re-merge in the registry
	// through snapshot overlap.
	pending map[string]*pendingGroup

	// siteRes records, per path-counted access site touched during this
	// invocation, what the site resolved to — an identified input or a
	// still-pending group. The decode of the loop's path counters
	// (LoopPathCount) charges each site's per-access costs there.
	siteRes []siteResolution
}

// siteResolution is one site's input resolution within an invocation.
type siteResolution struct {
	site  int
	input int   // resolved input id (unused when group != nil)
	tid   int32 // interned type id for typed counters, -1 untyped
	group *pendingGroup
}

// setSiteRes records or overwrites the invocation's resolution for a site.
func (inv *invocation) setSiteRes(site, input int, tid int32, g *pendingGroup) {
	for i := range inv.siteRes {
		if inv.siteRes[i].site == site {
			inv.siteRes[i] = siteResolution{site: site, input: input, tid: tid, group: g}
			return
		}
	}
	inv.siteRes = append(inv.siteRes, siteResolution{site: site, input: input, tid: tid, group: g})
}

// siteResFor returns the invocation's resolution for a site, or nil.
func (inv *invocation) siteResFor(site int) *siteResolution {
	for i := range inv.siteRes {
		if inv.siteRes[i].site == site {
			return &inv.siteRes[i]
		}
	}
	return nil
}

// touchedInput is one input's per-invocation measurement state.
type touchedInput struct {
	id       int
	ref      events.Entity // last accessed entity; nil if only measured
	epoch    uint64        // input epoch at last measurement
	measured bool
}

// touch returns the invocation's entry for input id, appending one.
func (inv *invocation) touch(id int) *touchedInput {
	for i := range inv.touched {
		if inv.touched[i].id == id {
			return &inv.touched[i]
		}
	}
	inv.touched = append(inv.touched, touchedInput{id: id})
	return &inv.touched[len(inv.touched)-1]
}

// pendingGroup parks costs for one not-yet-identified structure kind.
// Costs are interned with Input == NoInput; resolution rewrites them to
// the identified input id.
type pendingGroup struct {
	costs costVec
	first events.Entity
	last  events.Entity
}

func (p *Profiler) pendingFor(inv *invocation, e events.Entity) *pendingGroup {
	if inv.pending == nil {
		inv.pending = map[string]*pendingGroup{}
	}
	key := e.TypeName()
	g := inv.pending[key]
	if g == nil {
		g = p.newPendingGroup()
		g.first = e
		inv.pending[key] = g
	}
	g.last = e
	return g
}

func (n *Node) getOrCreateChild(kind NodeKind, id int) *Node {
	if n.childIdx == nil {
		n.childIdx = map[childKey]*Node{}
	}
	k := childKey{kind, id}
	if c, ok := n.childIdx[k]; ok {
		return c
	}
	c := &Node{Kind: kind, ID: id, Parent: n}
	n.childIdx[k] = c
	n.Children = append(n.Children, c)
	return c
}

// cur returns the node's innermost active invocation, or nil.
func (n *Node) cur() *invocation {
	if len(n.active) == 0 {
		return nil
	}
	return n.active[len(n.active)-1]
}

// Invocations returns the number of recorded invocations (all of them,
// unless sampling dropped some).
func (n *Node) Invocations() int { return len(n.History) }

// Started returns the number of begun invocations, independent of
// sampling.
func (n *Node) Started() int { return n.started }

// ActiveCount returns the number of in-flight (not yet finalized)
// invocations. Zero for every node after a balanced run plus Finish; the
// invariant verifier checks exactly that.
func (n *Node) ActiveCount() int { return len(n.active) }

// Totals materializes the node's aggregate cost counters (over ALL
// invocations, independent of sampling) as a map.
func (n *Node) Totals() map[CostKey]int64 {
	if n.keys == nil {
		return map[CostKey]int64{}
	}
	return n.totals.materialize(n.keys)
}

// TotalCost sums a cost op over all invocations (exact even under
// sampling). Only untyped keys are summed (every operation is recorded
// under an untyped key plus optional typed refinements, so this never
// double counts).
func (n *Node) TotalCost(op CostOp) int64 {
	var sum int64
	for _, c := range n.totals.cells {
		k := n.keys.keys[c.id]
		if k.Op == op && k.Type == "" {
			sum += c.n
		}
	}
	return sum
}

// IdentifyMode selects when unknown structures are snapshotted (§3.4).
type IdentifyMode int

// Identification modes.
const (
	// DeferredIdentify implements the paper's RemeasureInputs
	// optimization: accesses to not-yet-identified structures are parked
	// and resolved by two snapshots (first and last accessed reference)
	// at repetition exit. Constructions cost O(n) instead of O(n²).
	DeferredIdentify IdentifyMode = iota
	// EagerIdentify snapshots at every access of an unknown structure —
	// the unoptimized variant, kept for the overhead ablation.
	EagerIdentify
)

// Options configure a Profiler.
type Options struct {
	// Identify selects deferred (default) or eager input identification.
	Identify IdentifyMode
	// SizeStrategy selects array size measurement (default Capacity).
	SizeStrategy snapshot.Strategy
	// Criterion selects the snapshot equivalence criterion (default
	// SomeElements, the paper's choice).
	Criterion snapshot.Criterion
	// SampleEvery keeps only every k-th invocation record per repetition
	// node (0 or 1 keeps all). Totals stay exact; cost-function series
	// thin out proportionally. Implements the paper's §3.3 suggestion for
	// reducing the profiler's memory footprint.
	SampleEvery int
	// DisableMemo turns off the registry's incremental snapshot memo
	// (ablation: every observation re-traverses its structure, the
	// paper's measured behaviour).
	DisableMemo bool
	// MaxEvents degrades the profiler after this many consumed events
	// (0 = unlimited): recording switches to deterministic invocation
	// sampling so retained history stops growing with run length, while
	// per-node totals stay exact. The tripped limit is reported by
	// DegradedReasons.
	MaxEvents uint64
	// MaxLiveBytes bounds the profiler's approximate live memory —
	// recorded invocation history plus the input registry (0 =
	// unlimited). Each time the estimate exceeds the bound the dynamic
	// sampling interval doubles and already-recorded history is shed
	// deterministically (records with Index % interval != 0 drop), so a
	// run of any length converges to a bounded, still-fittable profile.
	MaxLiveBytes int64
}

// Profiler consumes events and builds the repetition tree. It implements
// events.Listener.
type Profiler struct {
	ins  *instrument.Instrumented // nil for custom (non-MJ) frontends
	reg  *snapshot.Registry
	opts Options

	nameFn      func(NodeKind, int) string
	fieldTypeFn func(int) string

	root  *Node
	tn    *Node   // current repetition tree node
	stack []*Node // shadow stack (§3.2)

	// allocatedBy records the repetition node active at each entity's
	// allocation in a dense base-offset slice keyed by entity id (ids are
	// monotonic and never reused); the classifier uses it to tell
	// constructions from modifications.
	abBase      uint64
	allocatedBy []*Node

	// keys interns CostKeys; stepID is the pre-interned id of cost{STEP},
	// the single hottest counter.
	keys   *costInterner
	stepID int32

	// sites is the per-site dispatch metadata for path-counter mode
	// (empty outside it); indexed by the instrumenter's site id.
	sites []siteMeta

	// invFree / pgFree recycle invocation and pending-group storage.
	invFree []*invocation
	pgFree  []*pendingGroup

	// ftTIDs caches interned type ids of fieldTypeFn results by field id
	// (ftKnown marks resolved entries; -1 means untyped).
	ftTIDs  []int32
	ftKnown []bool

	// etTIDs caches interned type ids per entity id in a dense base-offset
	// table (0 = unknown, else tid + 2).
	etBase uint64
	etTIDs []int32

	// events counts consumed listener events. It is atomic because
	// EventCount is read from other goroutines (service stats, quota
	// charging) while the profiled run's goroutine is still ticking it;
	// everything else in the struct stays single-goroutine.
	events atomic.Uint64

	// liveBytes estimates the
	// retained history footprint (maintained only under MaxLiveBytes).
	// dynSample is the dynamic invocation sampling interval installed
	// when a limit trips (0 = full fidelity); degraded lists the tripped
	// limits in trip order. histNodes tracks nodes with recorded history
	// so shedHistory can revisit them without walking the whole tree.
	liveBytes int64
	dynSample int
	degraded  []string
	histNodes []*Node

	errs []error
}

var _ events.Listener = (*Profiler)(nil)

// NewProfiler creates a profiler for one instrumented MJ execution.
func NewProfiler(ins *instrument.Instrumented, opts Options) *Profiler {
	p := newProfiler(ins.RecTypes, opts)
	p.ins = ins
	p.sites = buildSiteMeta(ins.Sites, ins.Plan)
	p.nameFn = func(kind NodeKind, id int) string {
		switch kind {
		case KindLoop:
			return ins.LoopByID(id).Name()
		case KindRecursion:
			return ins.Prog.Sem.MethodByID(id).QualifiedName() + "/recursion"
		}
		return "Program"
	}
	p.fieldTypeFn = func(fieldID int) string {
		f := ins.Prog.Sem.FieldByID(fieldID)
		t := f.Type
		for t.Kind == types.KArray {
			t = t.Elem
		}
		return t.String()
	}
	return p
}

// NewCustomProfiler creates a profiler for a non-MJ frontend (e.g. the
// probe API for natively instrumented Go code). rt drives structure
// traversal (which field ids are recursive links), nameFn labels
// repetition nodes, and fieldTypeFn labels field ids for typed cost keys.
func NewCustomProfiler(rt *rectype.Result,
	nameFn func(NodeKind, int) string,
	fieldTypeFn func(int) string,
	opts Options) *Profiler {

	p := newProfiler(rt, opts)
	p.nameFn = nameFn
	p.fieldTypeFn = fieldTypeFn
	return p
}

func newProfiler(rt *rectype.Result, opts Options) *Profiler {
	reg := snapshot.NewRegistryWith(rt, opts.SizeStrategy, opts.Criterion)
	if opts.DisableMemo {
		reg.SetMemoization(false)
	}
	p := &Profiler{
		reg:  reg,
		opts: opts,
		root: &Node{Kind: KindRoot, ID: -1},
		keys: newCostInterner(),
	}
	p.stepID = p.keys.id(CostKey{Op: OpStep, Input: NoInput})
	p.root.active = []*invocation{{index: 0, parentIndex: 0}}
	p.root.started = 1
	p.tn = p.root
	p.stack = []*Node{p.root}
	return p
}

// NodeSourceLine returns the source line of a repetition node's header
// (loops only; 0 when unknown or for non-MJ frontends).
func (p *Profiler) NodeSourceLine(n *Node) int {
	if p.ins == nil || n.Kind != KindLoop {
		return 0
	}
	return p.ins.LoopByID(n.ID).Line
}

// NodeName renders a human-readable name for a repetition node.
func (p *Profiler) NodeName(n *Node) string {
	if n.Kind == KindRoot {
		return "Program"
	}
	if p.nameFn == nil {
		return fmt.Sprintf("%v#%d", n.Kind, n.ID)
	}
	return p.nameFn(n.Kind, n.ID)
}

// Registry exposes the input registry (for reporting and analysis).
func (p *Profiler) Registry() *snapshot.Registry { return p.reg }

// Instrumented exposes the static instrumentation metadata.
func (p *Profiler) Instrumented() *instrument.Instrumented { return p.ins }

// Root returns the repetition tree root.
func (p *Profiler) Root() *Node { return p.root }

// AllocatedBy returns the repetition node that allocated entity id, or nil.
func (p *Profiler) AllocatedBy(id uint64) *Node {
	if p.allocatedBy == nil || id < p.abBase {
		return nil
	}
	off := id - p.abBase
	if off >= uint64(len(p.allocatedBy)) {
		return nil
	}
	return p.allocatedBy[off]
}

// Allocations returns the full entity-id → allocating-node relation,
// materialized as a map. Call at report time only; profiling stores the
// relation as a dense slice.
func (p *Profiler) Allocations() map[uint64]*Node {
	m := make(map[uint64]*Node, len(p.allocatedBy))
	for off, n := range p.allocatedBy {
		if n != nil {
			m[p.abBase+uint64(off)] = n
		}
	}
	return m
}

// Errors returns internal consistency problems detected during profiling.
func (p *Profiler) Errors() []error { return p.errs }

// CostKeys returns a copy of the interned cost-key table in dense-id
// order: every distinct counter the run touched. Run manifests persist it
// so stored profiles expose their cost vocabulary without replaying.
func (p *Profiler) CostKeys() []CostKey {
	return append([]CostKey(nil), p.keys.keys...)
}

// Finish finalizes the root invocation. Call once after the program run.
func (p *Profiler) Finish() {
	for p.tn != p.root && len(p.stack) > 1 {
		// Unbalanced events (program aborted mid-run): close out.
		p.errs = append(p.errs, fmt.Errorf("core: node %v still active at finish", p.tn.Kind))
		p.exitCurrent()
	}
	if inv := p.root.cur(); inv != nil {
		p.finalize(p.root)
	}
}

func (p *Profiler) errorf(format string, args ...any) {
	if len(p.errs) < 100 {
		p.errs = append(p.errs, fmt.Errorf("core: "+format, args...))
	}
}

// ---------------------------------------------------------------------------
// Resource limits and graceful degradation

// initialDynSample is the sampling interval installed when a limit first
// trips. Deliberately small: degradation should be gentle, doubling only
// under continued memory pressure.
const initialDynSample = 16

// EventCount returns the number of listener events consumed so far. Safe
// to call from any goroutine, including while the run is in flight.
func (p *Profiler) EventCount() uint64 { return p.events.Load() }

// LiveBytes returns the approximate retained bytes of recorded invocation
// history (excluding the registry). Maintained only when MaxLiveBytes is
// set; 0 otherwise.
func (p *Profiler) LiveBytes() int64 { return p.liveBytes }

// SampleInterval returns the effective invocation sampling interval:
// the configured SampleEvery or the dynamic interval installed by a
// tripped limit, whichever is coarser (≤ 1 means every invocation).
func (p *Profiler) SampleInterval() int {
	if p.dynSample > p.opts.SampleEvery {
		return p.dynSample
	}
	return p.opts.SampleEvery
}

// DegradedReasons returns the limits that tripped during the run, in trip
// order and without duplicates; empty for a full-fidelity run.
func (p *Profiler) DegradedReasons() []string {
	return append([]string(nil), p.degraded...)
}

// Degraded reports whether any limit tripped.
func (p *Profiler) Degraded() bool { return len(p.degraded) > 0 }

// tick counts one consumed event and trips the event limit exactly once.
// Every events.Listener method calls it first.
func (p *Profiler) tick() {
	n := p.events.Add(1)
	if m := p.opts.MaxEvents; m > 0 && n == m+1 {
		p.degrade("max-events")
	}
}

// degrade records a tripped limit and coarsens the dynamic sampling
// interval: installed at initialDynSample on the first trip, doubled on
// every further one. Already-recorded history is re-thinned to the new
// interval so memory actually shrinks, not just stops growing.
func (p *Profiler) degrade(reason string) {
	seen := false
	for _, r := range p.degraded {
		if r == reason {
			seen = true
			break
		}
	}
	if !seen {
		p.degraded = append(p.degraded, reason)
	}
	if p.dynSample == 0 {
		p.dynSample = initialDynSample
	} else if p.dynSample < 1<<30 {
		p.dynSample *= 2
	}
	p.shedHistory()
}

// shedHistory drops recorded invocations whose Index is not a multiple of
// the dynamic sampling interval. The rule is deterministic (a function of
// the index alone), so a degraded recording and its replay shed the same
// records; index 0 always survives, so no node loses its history
// entirely. liveBytes is recomputed from what remains.
func (p *Profiler) shedHistory() {
	if p.dynSample <= 1 {
		return
	}
	var total int64
	for _, n := range p.histNodes {
		kept := n.History[:0]
		for _, inv := range n.History {
			if inv.Index%p.dynSample != 0 {
				continue
			}
			kept = append(kept, inv)
			if p.opts.MaxLiveBytes > 0 {
				total += invBytes(inv.costs, inv.Sizes)
			}
		}
		for i := len(kept); i < len(n.History); i++ {
			n.History[i] = Invocation{} // release shed records' storage
		}
		n.History = kept
	}
	p.liveBytes = total
}

// invBytes estimates the retained footprint of one recorded invocation:
// struct and map headers plus per-entry costs of the cost vector and size
// map. Coarse by design — the limit check needs proportionality, not
// accounting.
func invBytes(costs costVec, sizes []SizeEntry) int64 {
	return 96 + int64(len(costs.cells))*16 + int64(len(sizes))*8
}

// begin starts a new invocation of node under the current parent context.
func (p *Profiler) begin(node *Node) {
	parentInv := 0
	if node.Parent != nil {
		if pi := node.Parent.cur(); pi != nil {
			parentInv = pi.index
		}
	}
	node.active = append(node.active, p.newInvocation(node.started, parentInv))
	node.started++
}

// finalize completes the node's innermost invocation: remeasure inputs,
// resolve pending costs, append to history (§3.3).
func (p *Profiler) finalize(node *Node) {
	inv := node.cur()
	if inv == nil {
		p.errorf("finalize without active invocation")
		return
	}
	node.active = node.active[:len(node.active)-1]
	p.remeasure(inv)
	node.keys = p.keys
	for _, c := range inv.costs.cells {
		node.totals.add(c.id, c.n)
	}
	if k := p.SampleInterval(); k > 1 && inv.index%k != 0 {
		// Sampled out: totals kept, record dropped, storage recycled.
		p.recycle(inv)
		return
	}
	if len(node.History) == 0 {
		// Index 0 always passes the sampling rule and shedHistory never
		// drops it, so each node registers here exactly once.
		p.histNodes = append(p.histNodes, node)
	}
	// The record gets exact-size copies of the cost cells and size entries
	// so the invocation's scratch storage (and its grown capacity) can be
	// recycled; abandoning the scratch to the record would force the
	// free-listed shell to re-grow from nil on every reuse.
	cells := inv.costs.cells
	if len(cells) > 0 {
		cells = append(make([]costCell, 0, len(cells)), cells...)
	}
	sizes := inv.sizes
	if len(sizes) > 0 {
		sizes = append(make([]SizeEntry, 0, len(sizes)), sizes...)
	}
	node.History = append(node.History, Invocation{
		Index:       inv.index,
		ParentIndex: inv.parentIndex,
		Sizes:       sizes,
		costs:       costVec{cells: cells},
		keys:        p.keys,
	})
	if p.opts.MaxLiveBytes > 0 {
		p.liveBytes += invBytes(inv.costs, inv.sizes)
		if p.liveBytes+p.reg.ApproxBytes() > p.opts.MaxLiveBytes {
			p.degrade("max-live-bytes")
		}
	}
	p.recycle(inv)
}

// remeasure implements RemeasureInputs (§3.4): at repetition exit, take a
// final snapshot of each touched input (starting from the last accessed
// reference) and resolve deferred identifications.
func (p *Profiler) remeasure(inv *invocation) {
	for i := range inv.touched {
		t := &inv.touched[i]
		if t.ref == nil {
			continue // measured through another input's snapshot; no own root
		}
		if t.measured && t.epoch == p.reg.InputEpoch(t.id) {
			continue // nothing written into this input since the last measurement
		}
		obs := p.reg.Observe(t.ref)
		p.recordSize(inv, obs)
	}
	if len(inv.pending) > 0 {
		keys := make([]string, 0, len(inv.pending))
		for k := range inv.pending {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			g := inv.pending[key]
			if g.first != nil && g.first != g.last {
				// The first accessed reference may see a different fragment
				// (Listing 4); observing both lets overlap unification join
				// them.
				p.reg.Observe(g.first)
			}
			obs := p.reg.Observe(g.last)
			p.recordSize(inv, obs)
			for _, c := range g.costs.cells {
				k := p.keys.keys[c.id]
				k.Input = obs.InputID
				inv.costs.add(p.keys.id(k), c.n)
			}
			g.costs.reset()
			g.first, g.last = nil, nil
			p.pgFree = append(p.pgFree, g)
		}
		clear(inv.pending)
	}
}

func (p *Profiler) recordSize(inv *invocation, obs snapshot.Observation) {
	found := false
	for i := range inv.sizes {
		if inv.sizes[i].Input == int32(obs.InputID) {
			if int32(obs.Size) > inv.sizes[i].Size {
				inv.sizes[i].Size = int32(obs.Size)
			}
			found = true
			break
		}
	}
	if !found {
		inv.sizes = append(inv.sizes, SizeEntry{Input: int32(obs.InputID), Size: int32(obs.Size)})
	}
	t := inv.touch(obs.InputID)
	t.measured = true
	t.epoch = p.reg.InputEpoch(obs.InputID)
}

// exitCurrent force-exits the current node (used only for error recovery).
func (p *Profiler) exitCurrent() {
	p.finalize(p.tn)
	if len(p.stack) > 1 {
		p.stack = p.stack[:len(p.stack)-1]
	}
	p.tn = p.stack[len(p.stack)-1]
}

// ---------------------------------------------------------------------------
// events.Listener: repetition tree construction (§3.2)

// LoopEntry implements events.Listener.
func (p *Profiler) LoopEntry(loopID int) {
	p.tick()
	node := p.tn.getOrCreateChild(KindLoop, loopID)
	p.tn = node
	p.begin(node)
	p.stack = append(p.stack, node)
}

// LoopBack implements events.Listener.
func (p *Profiler) LoopBack(loopID int) {
	p.tick()
	node := p.tn
	if node.Kind != KindLoop || node.ID != loopID {
		node = p.findOnStack(KindLoop, loopID)
		if node == nil {
			p.errorf("back edge for inactive loop %d", loopID)
			return
		}
	}
	if inv := node.cur(); inv != nil {
		inv.costs.add(p.stepID, 1)
	}
}

// LoopExit implements events.Listener.
func (p *Profiler) LoopExit(loopID int) {
	p.tick()
	if p.tn.Kind != KindLoop || p.tn.ID != loopID {
		p.errorf("loop exit %d while at %v/%d", loopID, p.tn.Kind, p.tn.ID)
		return
	}
	p.finalize(p.tn)
	p.stack = p.stack[:len(p.stack)-1]
	p.tn = p.stack[len(p.stack)-1]
}

// MethodEntry implements events.Listener.
func (p *Profiler) MethodEntry(methodID int) {
	p.tick()
	if header := p.findOnPathToRoot(methodID); header != nil {
		// Recursive re-entry: fold into the header node and count one
		// algorithmic step.
		p.tn = header
		if inv := header.cur(); inv != nil {
			inv.costs.add(p.stepID, 1)
		}
	} else {
		p.tn = p.tn.getOrCreateChild(KindRecursion, methodID)
	}
	if p.tn.recursionDepth == 0 {
		p.begin(p.tn)
	}
	p.tn.recursionDepth++
	p.stack = append(p.stack, p.tn)
}

// MethodExit implements events.Listener.
func (p *Profiler) MethodExit(methodID int) {
	p.tick()
	node := p.tn
	if node.Kind != KindRecursion || node.ID != methodID {
		p.errorf("method exit %d while at %v/%d", methodID, node.Kind, node.ID)
		return
	}
	node.recursionDepth--
	if node.recursionDepth == 0 {
		p.finalize(node)
	}
	p.stack = p.stack[:len(p.stack)-1]
	p.tn = p.stack[len(p.stack)-1]
}

func (p *Profiler) findOnPathToRoot(methodID int) *Node {
	for n := p.tn; n != nil; n = n.Parent {
		if n.Kind == KindRecursion && n.ID == methodID {
			return n
		}
	}
	return nil
}

func (p *Profiler) findOnStack(kind NodeKind, id int) *Node {
	for i := len(p.stack) - 1; i >= 0; i-- {
		if p.stack[i].Kind == kind && p.stack[i].ID == id {
			return p.stack[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// events.Listener: cost and input tracking (§3.3, §3.4)

// structureAccess handles a read or write of a recursive structure link.
// tid is the interned type id qualifying the typed counter (< 0: untyped
// only).
func (p *Profiler) structureAccess(obj events.Entity, op CostOp, tid int32) {
	inv := p.tn.cur()
	if inv == nil {
		return
	}
	id := p.reg.InputOf(obj)
	if id < 0 {
		if p.opts.Identify == EagerIdentify {
			obs := p.reg.Observe(obj)
			p.recordSize(inv, obs)
			id = obs.InputID
		} else {
			g := p.pendingFor(inv, obj)
			g.costs.add(p.keys.id(CostKey{Op: op, Input: NoInput}), 1)
			if tid >= 0 {
				g.costs.add(p.keys.typedID(op, NoInput, tid), 1)
			}
			return
		}
	}
	inv.costs.add(p.keys.id(CostKey{Op: op, Input: id}), 1)
	if tid >= 0 {
		inv.costs.add(p.keys.typedID(op, id, tid), 1)
	}
	t := inv.touch(id)
	t.ref = obj
	if !t.measured {
		// First access of this input in this invocation: snapshot (§3.4).
		obs := p.reg.Observe(obj)
		p.recordSize(inv, obs)
	}
}

// FieldGet implements events.Listener.
func (p *Profiler) FieldGet(obj events.Entity, fieldID int) {
	p.tick()
	p.structureAccess(obj, OpGet, p.fieldTypeID(fieldID))
}

// FieldPut implements events.Listener.
func (p *Profiler) FieldPut(obj events.Entity, fieldID int, _ events.Entity) {
	p.tick()
	p.reg.NoteWriteTo(obj)
	p.structureAccess(obj, OpPut, p.fieldTypeID(fieldID))
}

// ArrayLoad implements events.Listener.
func (p *Profiler) ArrayLoad(arr events.Entity) {
	p.tick()
	p.structureAccess(arr, OpArrLoad, p.entityTypeID(arr))
}

// ArrayStore implements events.Listener.
func (p *Profiler) ArrayStore(arr events.Entity, _ events.Entity) {
	p.tick()
	p.reg.NoteWriteTo(arr)
	p.structureAccess(arr, OpArrStore, p.entityTypeID(arr))
}

// Alloc implements events.Listener.
func (p *Profiler) Alloc(obj events.Entity, classID int) {
	p.tick()
	if inv := p.tn.cur(); inv != nil {
		inv.costs.add(p.keys.id(CostKey{Op: OpNew, Input: NoInput}), 1)
		if tid := p.entityTypeID(obj); tid >= 0 {
			inv.costs.add(p.keys.typedID(OpNew, NoInput, tid), 1)
		}
	}
	id := obj.EntityID()
	if p.allocatedBy == nil {
		p.abBase = id
	} else if id < p.abBase {
		shift := p.abBase - id
		grown := make([]*Node, uint64(len(p.allocatedBy))+shift)
		copy(grown[shift:], p.allocatedBy)
		p.allocatedBy, p.abBase = grown, id
	}
	off := id - p.abBase
	if off >= uint64(len(p.allocatedBy)) {
		if off < uint64(cap(p.allocatedBy)) {
			// The slice only grows, so capacity beyond len is still nil.
			p.allocatedBy = p.allocatedBy[:off+1]
		} else {
			newCap := 2 * cap(p.allocatedBy)
			if newCap < 64 {
				newCap = 64
			}
			if uint64(newCap) < off+1 {
				newCap = int(off + 1)
			}
			grown := make([]*Node, off+1, newCap)
			copy(grown, p.allocatedBy)
			p.allocatedBy = grown
		}
	}
	p.allocatedBy[off] = p.tn
}

// InputRead implements events.Listener.
func (p *Profiler) InputRead() {
	p.tick()
	if inv := p.tn.cur(); inv != nil {
		inv.costs.add(p.keys.id(CostKey{Op: OpIn, Input: NoInput}), 1)
	}
}

// OutputWrite implements events.Listener.
func (p *Profiler) OutputWrite() {
	p.tick()
	if inv := p.tn.cur(); inv != nil {
		inv.costs.add(p.keys.id(CostKey{Op: OpOut, Input: NoInput}), 1)
	}
}

// fieldTypeID returns the interned type id of the base type of the
// field's declared type (the paper's "by element type" qualifier, e.g.
// Vertex for a Vertex/Vertex[] field), or -1 for untyped. Results are
// cached per field id so the event hot path never re-renders or re-hashes
// type names.
func (p *Profiler) fieldTypeID(fieldID int) int32 {
	if p.fieldTypeFn == nil {
		return -1
	}
	if fieldID >= 0 && fieldID < len(p.ftKnown) && p.ftKnown[fieldID] {
		return p.ftTIDs[fieldID]
	}
	tid := int32(-1)
	if name := p.fieldTypeFn(fieldID); name != "" {
		tid = p.keys.typeID(name)
	}
	if fieldID >= 0 {
		for len(p.ftKnown) <= fieldID {
			p.ftKnown = append(p.ftKnown, false)
			p.ftTIDs = append(p.ftTIDs, -1)
		}
		p.ftKnown[fieldID] = true
		p.ftTIDs[fieldID] = tid
	}
	return tid
}

// entityTypeID returns the interned type id of the entity's type name, or
// -1 for untyped. Cached in a dense table by entity id (ids come from
// monotonic counters), so repeated accesses of the same array resolve
// their typed counters without hashing the type string.
func (p *Profiler) entityTypeID(e events.Entity) int32 {
	id := e.EntityID()
	if p.etTIDs == nil {
		p.etBase = id
	} else if id < p.etBase {
		shift := p.etBase - id
		grown := make([]int32, uint64(len(p.etTIDs))+shift)
		copy(grown[shift:], p.etTIDs)
		p.etTIDs, p.etBase = grown, id
	}
	off := id - p.etBase
	if off >= uint64(len(p.etTIDs)) {
		if off < uint64(cap(p.etTIDs)) {
			// The table only grows, so capacity beyond len is still zero.
			p.etTIDs = p.etTIDs[:off+1]
		} else {
			newCap := 2 * cap(p.etTIDs)
			if newCap < 64 {
				newCap = 64
			}
			if uint64(newCap) < off+1 {
				newCap = int(off + 1)
			}
			grown := make([]int32, off+1, newCap)
			copy(grown, p.etTIDs)
			p.etTIDs = grown
		}
	}
	if v := p.etTIDs[off]; v != 0 {
		return v - 2
	}
	tid := int32(-1)
	if name := e.TypeName(); name != "" {
		tid = p.keys.typeID(name)
	}
	p.etTIDs[off] = tid + 2 // offset so 0 keeps meaning "unknown"
	return tid
}
