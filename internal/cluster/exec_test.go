package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestPickErrorPrefersTheDeadline: a node reads its deadline off the clock,
// so it can fail with DeadlineExceeded before the query context's timer
// fires; its failure cancels the query context, and the other nodes stop
// with Canceled. While the caller's context is not yet done, the query must
// report the deadline, whichever node order the errors come in, and a node's
// own failure still comes before either.
func TestPickErrorPrefersTheDeadline(t *testing.T) {
	q := &query{outer: context.Background()}
	canceled := fmt.Errorf("qef: work unit on core 0: %w", context.Canceled)
	deadline := fmt.Errorf("qef: work unit on core 1: %w", context.DeadlineExceeded)
	if err := q.pickError([]error{canceled, nil, deadline, canceled}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("node 0 canceled, node 2 past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if err := q.pickError([]error{deadline, canceled}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("node 0 past its deadline, node 1 canceled: err = %v, want context.DeadlineExceeded", err)
	}
	cause := errors.New("node failed")
	if err := q.pickError([]error{canceled, deadline, cause}); err != cause {
		t.Errorf("a node's own failure among cancellations: err = %v, want %v", err, cause)
	}
	if err := q.pickError([]error{nil, nil}); err != nil {
		t.Errorf("no node failed: err = %v", err)
	}
}
