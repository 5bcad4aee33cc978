package verify

import (
	"fmt"

	"algoprof/internal/cct"
	"algoprof/internal/core"
)

// CheckTree validates the repetition tree a core profiler built after its
// Finish: internal profiler errors, invocation accounting (recorded
// history never exceeds started invocations, each recorded index names a
// distinct started invocation, parent links in range, nothing left
// active), and cost conservation —
// per-invocation history sums never exceed the node's exact totals, with
// equality on full-fidelity runs. The conservation check is what holds
// even under sampling degradation: sampling drops records, never counts.
//
// tolerant skips the profiler's own error list: a truncated trace ends
// mid-repetition, so Finish legitimately force-closes open nodes and logs
// errors for them. The structural and conservation checks still apply.
func CheckTree(p *core.Profiler, tolerant bool) []Violation {
	var vs []Violation
	add := func(rule, format string, args ...any) {
		vs = append(vs, violationf(rule, format, args...))
	}
	if !tolerant {
		for _, err := range p.Errors() {
			add("profiler-errors", "%v", err)
		}
	}
	full := p.SampleInterval() <= 1
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		name := p.NodeName(n)
		if n.ActiveCount() != 0 {
			add("tree-closed", "node %s: %d invocation(s) still active", name, n.ActiveCount())
		}
		if n.Invocations() > n.Started() {
			add("tree-accounting", "node %s: %d recorded > %d started", name, n.Invocations(), n.Started())
		}
		// History is in completion order, not start order: an invocation
		// nested in another of the same node (recursion reaching the loop
		// again) finishes first. So indices need not rise, only each name
		// a distinct started invocation.
		recorded := make([]bool, n.Started())
		for _, inv := range n.History {
			switch {
			case inv.Index < 0 || inv.Index >= n.Started():
				add("tree-accounting", "node %s: invocation index %d outside started [0,%d)", name, inv.Index, n.Started())
			case recorded[inv.Index]:
				add("tree-accounting", "node %s: invocation index %d recorded twice", name, inv.Index)
			default:
				recorded[inv.Index] = true
			}
			if parent := n.Parent; parent != nil && inv.ParentIndex >= parent.Started() {
				add("tree-accounting", "node %s: parent index %d >= parent started %d", name, inv.ParentIndex, parent.Started())
			}
		}
		// Conservation: history is a subset of the invocations the totals
		// aggregate, so per key Σ history ≤ total — equal when nothing was
		// sampled out.
		hist := map[core.CostKey]int64{}
		for _, inv := range n.History {
			inv.EachCost(func(k core.CostKey, v int64) {
				hist[k] += v
			})
		}
		totals := n.Totals()
		for k, h := range hist {
			t := totals[k]
			if h > t {
				add("cost-conservation", "node %s: history %s = %d exceeds total %d", name, k, h, t)
			} else if full && h != t {
				add("cost-conservation", "node %s: history %s = %d != total %d on full-fidelity run", name, k, h, t)
			}
		}
		if full {
			for k, t := range totals {
				if _, ok := hist[k]; !ok && t != 0 {
					add("cost-conservation", "node %s: total %s = %d absent from history on full-fidelity run", name, k, t)
				}
			}
		}
		for _, ch := range n.Children {
			if ch.Parent != n {
				add("tree-closed", "node %s: child %s with broken parent link", name, p.NodeName(ch))
			}
			walk(ch)
		}
	}
	walk(p.Root())
	return vs
}

func violationf(rule, format string, args ...any) Violation {
	return Violation{Seq: -1, Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// AgreeStream cross-checks the tree against the stream the Checker
// observed. Valid whenever the profiler consumed the same (identically
// filtered) stream the checker tapped — the Run/Record/Replay paths, where
// the VM emits under the profiler's own plan:
//
//   - every loop entrance in the stream is exactly one started invocation
//     of a loop node with that id (loop entries always begin an invocation);
//   - every back edge is exactly one recorded STEP on a loop node with
//     that id (steps on loop nodes come only from back edges);
//   - method entries bound recursion-node accounting from above: each
//     entry begins an outermost invocation, folds into an active header
//     (one STEP), or re-enters an active node (neither), so
//     started + steps never exceeds the stream's entries.
//
// All quantities are exact even on degraded runs (started counts and
// totals ignore sampling).
func AgreeStream(c *Checker, p *core.Profiler) []Violation {
	var vs []Violation
	add := func(rule, format string, args ...any) {
		vs = append(vs, violationf(rule, format, args...))
	}
	loopStarted := map[int]int64{}
	loopSteps := map[int]int64{}
	recStarted := map[int]int64{}
	recSteps := map[int]int64{}
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		switch n.Kind {
		case core.KindLoop:
			loopStarted[n.ID] += int64(n.Started())
			loopSteps[n.ID] += n.TotalCost(core.OpStep)
		case core.KindRecursion:
			recStarted[n.ID] += int64(n.Started())
			recSteps[n.ID] += n.TotalCost(core.OpStep)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(p.Root())
	for id, want := range c.loopEntries {
		if got := loopStarted[id]; got != want {
			add("stream-tree", "loop %d: stream carried %d entries, tree started %d invocations", id, want, got)
		}
	}
	for id, got := range loopStarted {
		if _, ok := c.loopEntries[id]; !ok && got != 0 {
			add("stream-tree", "loop %d: tree started %d invocations, stream carried none", id, got)
		}
	}
	for id, want := range c.loopBacks {
		if got := loopSteps[id]; got != want {
			add("stream-tree", "loop %d: stream carried %d back edges, tree recorded %d steps", id, want, got)
		}
	}
	for id, got := range loopSteps {
		if _, ok := c.loopBacks[id]; !ok && got != 0 {
			add("stream-tree", "loop %d: tree recorded %d steps, stream carried no back edges", id, got)
		}
	}
	for id, got := range recStarted {
		want := c.methodEntries[id]
		if got+recSteps[id] > want {
			add("stream-tree", "method %d: tree accounts %d outermost + %d folded calls, stream carried %d entries",
				id, got, recSteps[id], want)
		}
	}
	return vs
}

// AgreeCCT cross-checks the calling-context-tree backend against the
// stream: the CCT's call count per method must equal the stream's method
// entries (the CCT increments exactly once per entry event). Valid when
// the CCT consumed an unfiltered view of method entries — the shared
// single-plan paths.
func AgreeCCT(c *Checker, flat []cct.HotMethod) []Violation {
	var vs []Violation
	seen := map[int]bool{}
	for _, hm := range flat {
		seen[hm.MethodID] = true
		if want := c.methodEntries[hm.MethodID]; hm.Calls != want {
			vs = append(vs, violationf("stream-cct", "method %d: cct counted %d calls, stream carried %d entries",
				hm.MethodID, hm.Calls, want))
		}
	}
	for id, n := range c.methodEntries {
		if !seen[id] && n > 0 {
			vs = append(vs, violationf("stream-cct", "method %d: stream carried %d entries, cct has no record", id, n))
		}
	}
	return vs
}
