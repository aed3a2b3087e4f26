// Package cancel provides the cooperative-cancellation primitive the MSE
// pipeline threads through its long-running loops.  A Token is derived
// from a context.Context at the two API boundaries that take one,
// core.BuildWrapperCtx and the extraction entry point
// core.(*EngineWrapper).ExtractLeasedObs, and handed down to the hot
// loops — the Zhang-Shasha dynamic program, the cluster score-matrix
// fill, the prune DFS, the layout render walk, wrapper application —
// which poll it at coarse checkpoints.
//
// Cancellation unwinds by panicking with Signal rather than by threading
// an error return through every pipeline stage: the deep call chains
// (visual distances inside stable marriage inside clustering) would
// otherwise need an error path through a dozen signatures that can never
// fail for any other reason.  The panic is recovered exclusively at the
// boundary that created the token, which converts it to the typed
// core.ErrCanceled; it never escapes a public API.  encoding/json and
// text/template unwind their recursive internals the same way.
//
// All methods are nil-receiver safe: a nil *Token means "not cancellable"
// and reduces every checkpoint to one pointer comparison, so code paths
// without a context pay nothing.
package cancel

import (
	"context"
	"sync/atomic"
)

// Token is a poll-style view of a context's cancellation state.  The
// fast-path check is one atomic load once cancellation has been observed;
// before that it is a non-blocking channel receive.
type Token struct {
	done  <-chan struct{}
	fired atomic.Bool
}

// FromContext returns a token polling ctx, or nil when ctx can never be
// canceled (nil ctx, context.Background, ...), so the no-context case
// stays on the checkpoint-free path.
func FromContext(ctx context.Context) *Token {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return &Token{done: done}
}

// Canceled reports whether the token's context has been canceled.  It is
// safe to call concurrently and on a nil token (which is never canceled).
func (t *Token) Canceled() bool {
	if t == nil {
		return false
	}
	if t.fired.Load() {
		return true
	}
	select {
	case <-t.done:
		t.fired.Store(true)
		return true
	default:
		return false
	}
}

// Check is the checkpoint the pipeline loops call: it panics with Signal
// when the token has been canceled and is a no-op otherwise (and on a nil
// token).  The panic must be recovered by the boundary that created the
// token; IsSignal recognizes it.
func (t *Token) Check() {
	if t.Canceled() {
		panic(Signal{})
	}
}

// Signal is the panic value Check unwinds with.  It deliberately carries
// no state: the boundary that recovers it already holds the context and
// reports the context's error.
type Signal struct{}

// IsSignal reports whether a recovered panic value is a cancellation
// Signal, looking through one level of wrapping by types that implement
// Unwrap() any (such as par.WorkerPanic, which re-raises worker panics on
// the caller's goroutine).
func IsSignal(r any) bool {
	if _, ok := r.(Signal); ok {
		return true
	}
	if u, ok := r.(interface{ Unwrap() any }); ok {
		_, ok2 := u.Unwrap().(Signal)
		return ok2
	}
	return false
}
