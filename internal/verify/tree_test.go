package verify_test

import (
	"strings"
	"testing"

	"algoprof/internal/core"
	"algoprof/internal/testutil"
	"algoprof/internal/verify"
	"algoprof/internal/workloads"
)

// recursiveTree profiles the first Table 1 tree row, whose recursive
// visit completes inner invocations of its loop before outer ones, and
// returns the profiler with a node whose history holds at least two
// invocations in falling index order.
func recursiveTree(t *testing.T) (*core.Profiler, *core.Node) {
	t.Helper()
	for _, row := range workloads.Table1() {
		p := testutil.Profile(t, row.Source(12), core.Options{}, 1)
		var found *core.Node
		var walk func(n *core.Node)
		walk = func(n *core.Node) {
			for i := 1; i < len(n.History) && found == nil; i++ {
				if n.History[i].Index < n.History[i-1].Index {
					found = n
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(p.Root())
		if found != nil {
			return p, found
		}
	}
	t.Fatal("no Table 1 row completes invocations out of start order")
	return nil, nil
}

func rules(vs []verify.Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCheckTreeCompletionOrder: history in completion order is a correct
// tree, while a repeated or out-of-range invocation index is still a
// violation.
func TestCheckTreeCompletionOrder(t *testing.T) {
	p, n := recursiveTree(t)
	if vs := verify.CheckTree(p, false); len(vs) != 0 {
		t.Fatalf("correct recursive tree flagged:\n%s", rules(vs))
	}
	saved := n.History[1].Index
	n.History[1].Index = n.History[0].Index
	if got := rules(verify.CheckTree(p, false)); !strings.Contains(got, "recorded twice") {
		t.Errorf("repeated invocation index not flagged; got:\n%s", got)
	}
	n.History[1].Index = n.Started()
	if got := rules(verify.CheckTree(p, false)); !strings.Contains(got, "outside started") {
		t.Errorf("out-of-range invocation index not flagged; got:\n%s", got)
	}
	n.History[1].Index = saved
}
