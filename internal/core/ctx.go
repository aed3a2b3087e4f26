package core

import (
	"context"
	"errors"
	"fmt"

	"mse/internal/cancel"
)

// ErrCanceled is returned (wrapped, carrying the context's own error) by
// BuildWrapperCtx and ExtractLeasedObs when the context is canceled or its
// deadline expires while the pipeline is running.  Test with
// errors.Is(err, core.ErrCanceled); the context cause is reachable through
// errors.Is(err, context.Canceled) / context.DeadlineExceeded as usual.
var ErrCanceled = errors.New("core: canceled")

// canceledErr wraps ErrCanceled with the context's cause.
func canceledErr(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, cause)
	}
	// The token fired but the context has no recorded cause (it raced a
	// cancel that has not propagated its err yet); report plain
	// cancellation.
	return fmt.Errorf("%w: %w", ErrCanceled, context.Canceled)
}

// recoverCanceled converts a cancellation signal unwinding the stack into
// *err = canceledErr(ctx); any other panic value is re-raised.  It must be
// deferred by exactly the function that derived the token from ctx.
func recoverCanceled(ctx context.Context, err *error) {
	if r := recover(); r != nil {
		if cancel.IsSignal(r) {
			*err = canceledErr(ctx)
			return
		}
		panic(r)
	}
}

// BuildWrapperCtx is BuildWrapper honouring ctx: the pipeline polls the
// context at its long-loop checkpoints (render walk, candidate section
// distances and scores, tree-edit-distance DP, cluster score matrix) and
// aborts with an error satisfying
// errors.Is(err, ErrCanceled) once ctx is done.  All pooled memory leased
// during the aborted run is returned to the pools.  With a
// non-cancellable ctx this is exactly BuildWrapper.
func BuildWrapperCtx(ctx context.Context, samples []*SamplePage, opt Options) (ew *EngineWrapper, err error) {
	tok := cancel.FromContext(ctx)
	if tok == nil {
		return BuildWrapper(samples, opt)
	}
	defer recoverCanceled(ctx, &err)
	return buildWrapper(samples, opt, tok)
}
