package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBreakerWorthy pins the failure classifier: transport errors and 5xx
// indict the worker; context cancellations and 4xx do not.
func TestBreakerWorthy(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", errors.New("connection refused"), true},
		{"wrapped transport", fmt.Errorf("worker x: %w", errors.New("broken pipe")), true},
		{"canceled", context.Canceled, false},
		{"wrapped canceled", fmt.Errorf("submit: %w", context.Canceled), false},
		{"deadline", context.DeadlineExceeded, false},
		{"http 500", &APIError{Status: 500, Message: "boom"}, true},
		{"http 503", fmt.Errorf("submit: %w", &APIError{Status: 503, Message: "full"}), true},
		{"http 400", &APIError{Status: 400, Message: "bad scenario"}, false},
		{"http 404", &APIError{Status: 404, Message: "unknown job"}, false},
	} {
		if got := breakerWorthy(tc.err); got != tc.want {
			t.Errorf("breakerWorthy(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDrainEstimate pins the Retry-After estimator: no recent completions
// fall back to the static hint, a measured rate scales with the backlog, and
// the clamp bounds the hint.
func TestDrainEstimate(t *testing.T) {
	now := time.Unix(5000, 0)
	at := func(secsAgo float64) time.Time {
		return now.Add(-time.Duration(secsAgo * float64(time.Second)))
	}
	if got := drainEstimate(nil, 3, now); got != retryAfterFull {
		t.Errorf("no samples: %d, want the static %d", got, retryAfterFull)
	}
	if got := drainEstimate([]time.Time{at(1)}, 3, now); got != retryAfterFull {
		t.Errorf("one sample: %d, want the static %d", got, retryAfterFull)
	}
	// Five completions 2s apart: 2 s/job; depth 3 -> (3+1)*2 = 8s.
	steady := []time.Time{at(8), at(6), at(4), at(2), at(0)}
	if got := drainEstimate(steady, 3, now); got != 8 {
		t.Errorf("steady rate, depth 3: %d, want 8", got)
	}
	// Empty queue still hints one job's worth.
	if got := drainEstimate(steady, 0, now); got != 2 {
		t.Errorf("steady rate, depth 0: %d, want 2", got)
	}
	// A glacial fleet is clamped.
	slow := []time.Time{at(59), at(1)}
	if got := drainEstimate(slow, 10, now); got != drainMaxHint {
		t.Errorf("glacial rate: %d, want the %d clamp", got, drainMaxHint)
	}
	// Samples beyond the window no longer inform the rate.
	stale := []time.Time{at(3000), at(2000), at(500)}
	if got := drainEstimate(stale, 5, now); got != retryAfterFull {
		t.Errorf("stale samples: %d, want the static %d", got, retryAfterFull)
	}
}
