package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// WorkerPanic is a panic raised on one of the kernel's workers — a shard
// running a safe window, or a barrier pool worker — recovered there and
// re-raised on the coordinating goroutine after the join. A panic left on
// a worker goroutine would kill the process from an anonymous stack; the
// re-raised value names where it happened and when, and carries the
// original stack, so the fault fails loudly and alone.
type WorkerPanic struct {
	// Worker names the failing worker: "shard 3" or "barrier pool worker 1".
	Worker string
	// T and H bound the safe window [T, H) the panic happened in, or whose
	// barrier it happened in for a pool worker. Both are NaN for a pool
	// run outside any sharded kernel's barrier.
	T, H Time
	// Value is the original panic value.
	Value any
	// Stack is the worker's stack at the panic (runtime/debug.Stack).
	Stack []byte
}

// Error renders the panic with its worker, window and original stack.
func (p *WorkerPanic) Error() string {
	where := p.Worker
	if !math.IsNaN(p.H) {
		where = fmt.Sprintf("%s, window [%v, %v)", p.Worker, p.T, p.H)
	}
	return fmt.Sprintf("sim: panic in %s: %v\n\noriginal stack:\n%s", where, p.Value, p.Stack)
}

// capturePanic converts a recovered value into a WorkerPanic for the named
// worker; it must be called from the deferred function that recovered r,
// so that the stack still holds the panicking frames.
func capturePanic(r any, worker string, t, h Time) *WorkerPanic {
	return &WorkerPanic{Worker: worker, T: t, H: h, Value: r, Stack: debug.Stack()}
}
