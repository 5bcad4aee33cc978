package trace

import "sync/atomic"

// CountCoders returns how many DEFLATE coders coderPool builds while fn
// runs; every other coder fn's writers use is a recycled one.
func CountCoders(fn func()) int {
	var n atomic.Int64
	build := coderPool.New
	coderPool.New = func() any {
		n.Add(1)
		return build()
	}
	defer func() { coderPool.New = build }()
	fn()
	return int(n.Load())
}
