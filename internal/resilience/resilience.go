// Package resilience holds the request-lifecycle guardrails of the
// serving path: a bounded-concurrency admission gate with a short wait
// queue (load shedding instead of unbounded queueing), a panic-recovery
// HTTP middleware, and deadline-budget helpers. The paper's Step 1 is
// quadratic in K, so a single expensive query can pin a core for seconds;
// these pieces make sure such queries are admitted deliberately, can be
// cancelled cooperatively (see core.ComputeScoresCtx / core.SelectCtx),
// and never take the process down.
package resilience

import (
	"context"
	"errors"
	"time"
)

// ErrShed is returned by Gate.Admit when a request is rejected by
// admission control: either the wait queue is full, or the request waited
// longer than the gate's maximum queue time. HTTP handlers should map it
// to 503 with a Retry-After hint.
var ErrShed = errors.New("resilience: request shed by admission control")

// Remaining reports the time left before ctx's deadline. ok is false when
// ctx carries no deadline (remaining is then meaningless and zero).
func Remaining(ctx context.Context) (remaining time.Duration, ok bool) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(d), true
}
