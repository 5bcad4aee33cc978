package main

import "sort"

// The end-to-end times are scaled to a reference speed, so that a shared
// machine whose speed drifts — other tenants contending for its cores,
// caches and memory — gives the same figures from run to run. Every run
// times a fixed reference kernel, which is Go code that does not belong
// to the program, between its measured operations. A figure at reference
// speed is the measured user CPU time × refKernelSeconds ÷ the kernel's
// median user CPU time in the same run. On a shared 2-core x86-64 machine
// the kernel took from 21 to 35 ms.
const (
	refKernelSeconds = 0.025
	calibRepeats     = 4
)

// sink keeps the reference kernel's result alive.
var sink int

// calibNode is one cell of the reference kernel's linked list.
type calibNode struct {
	next *calibNode
	val  int
}

// refKernel runs a fixed reference kernel: hash-map inserts and lookups,
// a linked list built in scrambled order and walked, and a sort — the
// kinds of work a profiling run does, in code that does not belong to the
// program. Its result is returned so the work cannot be optimised away.
func refKernel() int {
	const n = 1 << 16
	x := uint64(88172645463325252)
	rnd := func() int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x >> 1)
	}
	m := make(map[int]int, 0)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rnd()
		m[keys[i]] = i
	}
	sum := 0
	for _, k := range keys {
		sum += m[k]
	}
	nodes := make([]*calibNode, n)
	for i := range nodes {
		nodes[i] = &calibNode{val: i}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := rnd() % (i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i+1 < len(nodes); i++ {
		nodes[i].next = nodes[i+1]
	}
	for rep := 0; rep < 8; rep++ {
		for p := nodes[0]; p != nil; p = p.next {
			sum += p.val
		}
	}
	sort.Ints(keys)
	return sum + keys[n/2]
}
