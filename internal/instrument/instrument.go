// Package instrument rewrites MJ bytecode with profiling probes and
// computes instrumentation plans, reproducing §3.1 of the AlgoProf paper:
//
//   - Loop entry / loop exit / loop back-edge probes are injected into the
//     bytecode itself, on the CFG edges that enter, leave, or re-enter each
//     natural loop (the analog of AlgoProf's dynamic binary rewriting).
//   - Method entry/exit, reference field access, array access, allocation
//     and I/O events are gated by a Plan: the optimized plan limits them to
//     recursion-relevant methods and recursive-type fields/classes found by
//     static analysis; the full plan enables everything (used by the CCT
//     baseline and by overhead ablations).
package instrument

import (
	"fmt"
	"sort"

	"algoprof/internal/callgraph"
	"algoprof/internal/cfg"
	"algoprof/internal/events"
	"algoprof/internal/mj/bytecode"
	"algoprof/internal/mj/types"
	"algoprof/internal/pathdecode"
	"algoprof/internal/rectype"
)

// Mode selects how much to instrument.
type Mode int

// Instrumentation modes.
const (
	// Optimized limits method probes to recursive methods, field probes to
	// recursive-type links, and allocation probes to recursive-type
	// classes — the paper's static-analysis-guided plan.
	Optimized Mode = iota
	// Full enables every probe (CCT baseline, ablations).
	Full
	// Paths uses the Optimized plan but replaces per-iteration loop-back
	// and access probes of eligible ("counted") loops with Ball–Larus path
	// counters: one register update per branch and one counter bump per
	// finished iteration, decoded offline into the same totals. Loops the
	// numbering cannot handle keep their classic probes.
	Paths
)

// MaxLoopPaths caps a counted loop's number of acyclic paths. Loops with
// more fall back to classic probes: a branchier body would need a counter
// arena that outgrows the events it saves.
const MaxLoopPaths = 256

// LoopMeta describes one instrumented loop.
type LoopMeta struct {
	// ID is the loop's program-wide id (also the probe operand).
	ID int
	// Method is the containing method.
	Method *types.Method
	// Ordinal is the loop's index within its method (by header order).
	Ordinal int
	// Depth is the static nesting depth within the method (outermost 1).
	Depth int
	// ParentID is the id of the enclosing loop, or -1.
	ParentID int
	// Line is the source line of the loop header (0 if unknown).
	Line int
}

// Name renders a stable human-readable loop name like "List.sort/loop1".
func (l *LoopMeta) Name() string {
	return fmt.Sprintf("%s/loop%d", l.Method.QualifiedName(), l.Ordinal)
}

// Instrumented is a rewritten program plus everything the profiler needs
// to interpret its events.
type Instrumented struct {
	// Prog is the rewritten program. The input program is not modified.
	Prog *bytecode.Program
	// Loops holds metadata for every loop, indexed by loop id.
	Loops []*LoopMeta
	// Plan gates the non-loop events.
	Plan *events.Plan
	// CallGraph and RecTypes expose the static analyses.
	CallGraph *callgraph.Graph
	// RecTypes is the recursive-data-type analysis.
	RecTypes *rectype.Result

	// PathTables maps each counted loop's id to its decode table (Paths
	// mode only; loops absent from the map kept classic probes).
	PathTables map[int]*pathdecode.LoopTable
	// Sites lists every path-counted access site, indexed by site id. The
	// rewriter stores id+1 in the access instruction's B operand.
	Sites []pathdecode.Site

	// NewPC maps original pcs into the rewritten code, per function index:
	// NewPC[f][pc] is where the input program's instruction pc of
	// function f begins in Prog (at the first probe the rewrite put in
	// front of it, if any) — it executes exactly as often as the original
	// instruction. NewPC[f][len(code)] is the rewritten code's length. Nil
	// for a function the rewrite left unchanged.
	NewPC [][]int
}

// NumSites is the number of path-counted access sites (0 outside Paths
// mode); the VM sizes its per-site epoch table with it.
func (ins *Instrumented) NumSites() int { return len(ins.Sites) }

// LoopByID returns metadata for a loop id.
func (ins *Instrumented) LoopByID(id int) *LoopMeta { return ins.Loops[id] }

// Instrument analyzes p, injects loop probes into a copy of its bytecode,
// and computes the event plan for the chosen mode.
func Instrument(p *bytecode.Program, mode Mode) (*Instrumented, error) {
	cg := callgraph.Build(p)
	rt := rectype.Analyze(p.Sem)

	out := &Instrumented{
		Prog: &bytecode.Program{
			Sem:      p.Sem,
			Funcs:    make([]*bytecode.Function, len(p.Funcs)),
			TypePool: p.TypePool,
			MainID:   p.MainID,
		},
		CallGraph: cg,
		RecTypes:  rt,
		NewPC:     make([][]int, len(p.Funcs)),
	}

	if mode == Paths {
		out.PathTables = map[int]*pathdecode.LoopTable{}
	}
	nextLoopID := 0
	for i, fn := range p.Funcs {
		rew, metas, newPC, err := rewriteFunction(fn, nextLoopID, mode == Paths, out)
		if err != nil {
			return nil, err
		}
		out.Prog.Funcs[i] = rew
		out.NewPC[i] = newPC
		out.Loops = append(out.Loops, metas...)
		nextLoopID += len(metas)
	}

	nm, nf, nc := p.Sem.NumMethods(), p.Sem.NumFields(), len(p.Sem.Classes)
	switch mode {
	case Full:
		out.Plan = events.NewFullPlan(nm, nf, nc)
	default:
		plan := events.NewEmptyPlan(nm, nf, nc)
		plan.Arrays = true
		plan.IO = true
		for m := 0; m < nm; m++ {
			plan.MethodEntryExit[m] = cg.Recursive[m]
		}
		for f := 0; f < nf; f++ {
			plan.FieldAccess[f] = rt.IsRecursiveField(f)
		}
		for c := 0; c < nc; c++ {
			plan.AllocClass[c] = rt.IsRecursiveClass(c)
		}
		out.Plan = plan
	}
	return out, nil
}

// MustInstrument panics on error; for known-good workloads.
func MustInstrument(p *bytecode.Program, mode Mode) *Instrumented {
	ins, err := Instrument(p, mode)
	if err != nil {
		panic(err)
	}
	return ins
}

// siteKind classifies an access opcode for the decode tables.
func siteKind(op bytecode.Op) pathdecode.SiteKind {
	switch op {
	case bytecode.OpGetField:
		return pathdecode.SiteFieldGet
	case bytecode.OpPutField:
		return pathdecode.SiteFieldPut
	case bytecode.OpALoad:
		return pathdecode.SiteArrayLoad
	default:
		return pathdecode.SiteArrayStore
	}
}

// edgeCode is the probe sequence required on one CFG edge: instructions
// inserted before the transfer, plus (paths mode) whether the transfer
// itself becomes an OpPathBump finishing a counted iteration.
type edgeCode struct {
	pre     []bytecode.Instr
	bump    bool
	bumpInc int
}

func (ec edgeCode) empty() bool { return len(ec.pre) == 0 && !ec.bump }

// fusable reports an edge whose whole effect is a single path-register
// increment, which a conditional branch can absorb (OpJmpTruePath /
// OpJmpFalsePath) instead of paying a trampoline.
func (ec edgeCode) fusable() (int, bool) {
	if !ec.bump && len(ec.pre) == 1 && ec.pre[0].Op == bytecode.OpPathInc {
		return ec.pre[0].A, true
	}
	return 0, false
}

// rewriteFunction injects loop probes into fn, assigning loop ids starting
// at firstLoopID. In paths mode it additionally numbers each eligible
// loop's iteration paths, assigns program-wide access-site ids (stored in
// ins), and emits path-counter probes in place of classic ones. It returns
// a new function and its old-to-new pc map (nil when the code is
// shared unchanged); fn is unchanged.
func rewriteFunction(fn *bytecode.Function, firstLoopID int, paths bool, ins *Instrumented) (*bytecode.Function, []*LoopMeta, []int, error) {
	g := cfg.Build(fn)
	loops := cfg.NaturalLoops(g, firstLoopID)

	metas := make([]*LoopMeta, len(loops))
	for i, l := range loops {
		parent := -1
		if l.Parent != nil {
			parent = l.Parent.ID
		}
		metas[i] = &LoopMeta{
			ID:       l.ID,
			Method:   fn.Method,
			Ordinal:  i + 1,
			Depth:    l.Depth,
			ParentID: parent,
			Line:     fn.Code[g.Blocks[l.Header].Start].Line,
		}
	}
	if len(loops) == 0 {
		// Nothing to rewrite: share the code (it is immutable by convention).
		out := &bytecode.Function{Method: fn.Method, Code: fn.Code, NumLocals: fn.NumLocals}
		out.Handlers = append(out.Handlers, fn.Handlers...)
		return out, nil, nil, nil
	}

	// loopsIn[b] = ids of loops containing block b, outermost first.
	loopsIn := make([][]int, len(g.Blocks))
	for _, l := range loops {
		for _, b := range l.Body {
			loopsIn[b] = append(loopsIn[b], l.ID)
		}
	}

	// No-return regions (blocks all of whose paths end in a throw) cannot
	// reach a back edge, so natural-loop bodies exclude them — but
	// entering one is not a loop exit: the unwind decides dynamically
	// which loops are abandoned. Extend membership so edges into these
	// regions carry no exit probes: a no-return block inherits the
	// intersection of its predecessors' loop sets (fixpoint for chains).
	noReturn := make([]bool, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if noReturn[b.Index] {
				continue
			}
			last := fn.Code[b.End-1].Op
			nr := last == bytecode.OpThrow || last == bytecode.OpMissingReturn
			if !nr && len(b.Succs) > 0 && last != bytecode.OpRet && last != bytecode.OpRetVal {
				nr = true
				for _, s := range b.Succs {
					if !noReturn[s] {
						nr = false
						break
					}
				}
			}
			if nr {
				noReturn[b.Index] = true
				changed = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if !noReturn[b.Index] || len(b.Preds) == 0 {
				continue
			}
			inter := map[int]int{}
			for _, p := range b.Preds {
				for _, id := range loopsIn[p] {
					inter[id]++
				}
			}
			for id, cnt := range inter {
				if cnt != len(b.Preds) {
					continue
				}
				present := false
				for _, x := range loopsIn[b.Index] {
					if x == id {
						present = true
					}
				}
				if !present {
					loopsIn[b.Index] = append(loopsIn[b.Index], id)
					changed = true
				}
			}
		}
	}

	byID := map[int]*cfg.Loop{}
	for _, l := range loops {
		byID[l.ID] = l
	}
	for b := range loopsIn {
		sort.Slice(loopsIn[b], func(i, j int) bool {
			return byID[loopsIn[b][i]].Depth < byID[loopsIn[b][j]].Depth
		})
	}

	contains := func(set []int, id int) bool {
		for _, x := range set {
			if x == id {
				return true
			}
		}
		return false
	}

	// Paths mode: number each eligible loop and assign its access sites.
	// A loop is counted when the numbering succeeds AND the no-return
	// extension added nothing to its membership — an extended block means
	// an unwind could abandon an iteration mid-path.
	pns := map[int]*cfg.PathNumbering{} // counted loops, by id
	siteOf := map[int]int{}             // access pc -> global site id
	if paths {
		members := map[int]int{}
		for _, ids := range loopsIn {
			for _, id := range ids {
				members[id]++
			}
		}
		// A loop that spawns or joins threads keeps classic probes: path
		// counters defer the iteration's events until the bump, but a
		// spawned thread starts emitting its own stream immediately, so
		// ordering against the child requires per-iteration streaming.
		spawns := func(l *cfg.Loop) bool {
			for _, b := range l.Body {
				blk := g.Blocks[b]
				for pc := blk.Start; pc < blk.End; pc++ {
					switch fn.Code[pc].Op {
					case bytecode.OpSpawn, bytecode.OpJoin:
						return true
					}
				}
			}
			return false
		}
		for _, l := range loops {
			if members[l.ID] != len(l.Body) {
				continue
			}
			if spawns(l) {
				continue
			}
			if pn := cfg.NumberLoopPaths(g, l, MaxLoopPaths); pn != nil {
				pns[l.ID] = pn
			}
		}
		// Each counted loop's table lists its own attributed accesses (a
		// block's accesses belong to its innermost loop; inner-loop blocks
		// are opaque supernodes in the outer numbering). Site ids are
		// program-wide; the instruction's B operand carries id+1 so zero
		// keeps meaning "unsited".
		for _, l := range loops {
			pn := pns[l.ID]
			if pn == nil {
				continue
			}
			tbl := &pathdecode.LoopTable{LoopID: l.ID, NumPaths: pn.NumPaths}
			local := map[int]int32{}
			for _, pc := range pn.AllAccessPCs() {
				in := fn.Code[pc]
				site := pathdecode.Site{ID: len(ins.Sites), Kind: siteKind(in.Op), Field: -1}
				if in.Op == bytecode.OpGetField || in.Op == bytecode.OpPutField {
					site.Field = in.A
				}
				siteOf[pc] = site.ID
				local[pc] = int32(len(tbl.Sites))
				ins.Sites = append(ins.Sites, site)
				tbl.Sites = append(tbl.Sites, site)
			}
			for _, p := range pn.Paths {
				sp := pathdecode.Path{Back: p.Back}
				for _, pc := range p.AccessPCs {
					sp.Sites = append(sp.Sites, local[pc])
				}
				tbl.Paths = append(tbl.Paths, sp)
			}
			if err := tbl.Validate(); err != nil {
				return nil, nil, nil, fmt.Errorf("instrument: %s loop %d: %w", fn.Name(), l.ID, err)
			}
			ins.PathTables[l.ID] = tbl
		}
	}

	// codeFor computes the probes on edge from block u to block v. Order
	// matters for counted loops: exits restore the enclosing loop's path
	// register before that register is incremented or read, and increments
	// land before a nested loop saves the register on entry.
	codeFor := func(u, v int) edgeCode {
		var ec edgeCode
		lu, lv := loopsIn[u], loopsIn[v]
		// exits: in u, not in v; innermost first.
		for i := len(lu) - 1; i >= 0; i-- {
			id := lu[i]
			if contains(lv, id) {
				continue
			}
			if pn := pns[id]; pn != nil {
				ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpPathExit, A: id, B: pn.Exit[[2]int{u, v}]})
			} else {
				ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpLoopExit, A: id})
			}
		}
		// path-register increment: at most one counted loop numbers this
		// edge as internal to its iteration DAG.
		for _, id := range lv {
			pn := pns[id]
			if pn == nil || !contains(lu, id) {
				continue
			}
			if inc, ok := pn.Inc[[2]int{u, v}]; ok {
				ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpPathInc, A: inc})
				break
			}
		}
		// backs: v is the header and u is in the body.
		for _, id := range lv {
			if byID[id].Header == v && contains(lu, id) {
				if pn := pns[id]; pn != nil {
					ec.bump, ec.bumpInc = true, pn.Back[[2]int{u, v}]
				} else {
					ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpLoopBack, A: id})
				}
			}
		}
		// enters: in v, not in u; outermost first.
		for _, id := range lv {
			if !contains(lu, id) {
				if pn := pns[id]; pn != nil {
					ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpPathEnter, A: id, B: pn.NumPaths})
				} else {
					ec.pre = append(ec.pre, bytecode.Instr{Op: bytecode.OpLoopEnter, A: id})
				}
			}
		}
		return ec
	}

	// Assemble the new instruction stream. newIndex maps old pc -> new pc.
	var newCode []bytecode.Instr
	newIndex := make([]int, len(fn.Code)+1)

	// Virtual entry edge: entering the function may enter loops if the
	// entry block is inside one (function whose body starts at a header).
	for _, id := range loopsIn[g.Entry()] {
		if pn := pns[id]; pn != nil {
			newCode = append(newCode, bytecode.Instr{Op: bytecode.OpPathEnter, A: id, B: pn.NumPaths})
		} else {
			newCode = append(newCode, bytecode.Instr{Op: bytecode.OpLoopEnter, A: id})
		}
	}

	type splitEdge struct {
		jumpAt int // new-code index of the jump instruction to retarget
		target int // old pc the edge goes to
		code   edgeCode
	}
	var splits []splitEdge

	// emitEdge appends an edge's probes; a bump edge ends in OpPathBump
	// carrying the edge's old target (remapped with the other jumps).
	emitEdge := func(ec edgeCode, oldTarget int) (terminated bool) {
		newCode = append(newCode, ec.pre...)
		if ec.bump {
			newCode = append(newCode, bytecode.Instr{Op: bytecode.OpPathBump, A: oldTarget, B: ec.bumpInc})
		}
		return ec.bump
	}

	for pc, in := range fn.Code {
		b := g.BlockOf(pc)
		newIndex[pc] = len(newCode)

		// Explicit loop exits before returns inside loops (the VM also
		// unwinds as a safety net; explicit probes keep the event stream
		// well nested). Counted loops never appear here: a return block
		// cannot reach a back edge, so it is outside every counted body.
		if in.Op == bytecode.OpRet || in.Op == bytecode.OpRetVal || in.Op == bytecode.OpMissingReturn {
			lu := loopsIn[b]
			for i := len(lu) - 1; i >= 0; i-- {
				newCode = append(newCode, bytecode.Instr{Op: bytecode.OpLoopExit, A: lu[i]})
			}
		}

		if site, ok := siteOf[pc]; ok {
			in.B = site + 1
		}

		isLast := pc == g.Blocks[b].End-1
		if !isLast {
			newCode = append(newCode, in)
			continue
		}

		// Last instruction of its block: handle outgoing edges.
		switch in.Op {
		case bytecode.OpJmp:
			// Inline the probes before the jump: an unconditional jump is
			// the edge, so inline placement is exact. A bump edge absorbs
			// the jump entirely.
			ec := codeFor(b, g.BlockOf(in.A))
			if !emitEdge(ec, in.A) {
				newCode = append(newCode, in)
			}
		case bytecode.OpJmpIfFalse, bytecode.OpJmpIfTrue:
			// Two edges: taken (to in.A) and fallthrough (to pc+1).
			takenEC := codeFor(b, g.BlockOf(in.A))
			if inc, ok := takenEC.fusable(); ok {
				// Fuse the increment into the branch: no trampoline, no
				// extra dispatch on the taken edge.
				fused := bytecode.OpJmpTruePath
				if in.Op == bytecode.OpJmpIfFalse {
					fused = bytecode.OpJmpFalsePath
				}
				newCode = append(newCode, bytecode.Instr{Op: fused, A: in.A, B: inc, Line: in.Line})
			} else {
				jumpPos := len(newCode)
				newCode = append(newCode, in)
				if !takenEC.empty() {
					splits = append(splits, splitEdge{jumpAt: jumpPos, target: in.A, code: takenEC})
				}
			}
			if pc+1 < len(fn.Code) {
				emitEdge(codeFor(b, g.BlockOf(pc+1)), pc+1)
			}
		default:
			newCode = append(newCode, in)
			// Plain fallthrough edge.
			if !in.Op.IsTerminator() && pc+1 < len(fn.Code) {
				emitEdge(codeFor(b, g.BlockOf(pc+1)), pc+1)
			}
		}
	}
	newIndex[len(fn.Code)] = len(newCode)

	// Remap jump targets.
	for i := range newCode {
		if newCode[i].Op.IsJump() {
			newCode[i].A = newIndex[newCode[i].A]
		}
	}

	// Materialize trampolines for conditional taken-edges that need probes
	// (added after the remap, so they carry final targets).
	for _, se := range splits {
		tramp := len(newCode)
		newCode = append(newCode, se.code.pre...)
		if se.code.bump {
			newCode = append(newCode, bytecode.Instr{Op: bytecode.OpPathBump, A: newIndex[se.target], B: se.code.bumpInc})
		} else {
			newCode = append(newCode, bytecode.Instr{Op: bytecode.OpJmp, A: newIndex[se.target]})
		}
		newCode[se.jumpAt].A = tramp
	}

	out := &bytecode.Function{Method: fn.Method, Code: newCode, NumLocals: fn.NumLocals}

	// Remap the exception handler table and record, per handler, which
	// loops statically enclose its target: the VM emits LoopExit events
	// for every active loop outside that scope when it unwinds to the
	// handler (the paper's exceptional-control-flow handling).
	for _, h := range fn.Handlers {
		nh := h
		nh.From = newIndex[h.From]
		nh.To = newIndex[h.To]
		nh.Target = newIndex[h.Target]
		nh.LoopScope = append([]int(nil), loopsIn[g.BlockOf(h.Target)]...)
		out.Handlers = append(out.Handlers, nh)
	}

	if err := bytecode.Validate(out); err != nil {
		return nil, nil, nil, fmt.Errorf("instrument: %w", err)
	}
	return out, metas, newIndex, nil
}
