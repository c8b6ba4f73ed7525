package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// denseSystem is a maximization over n variables under n dense LE rows
// with coefficients 1…9: its tableau is dense from the first pivot, a
// pivot on it takes milliseconds, and it needs thousands of them.
func denseSystem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetCost(j, -1-rng.Float64())
	}
	idx, val := make([]int32, n), make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range idx {
			idx[j], val[j] = int32(j), float64(1+rng.Intn(9))
		}
		if err := p.AddRow(idx, val, LE, float64(100+rng.Intn(100))); err != nil {
			panic(err)
		}
	}
	return p
}

// TestCancelledDenseSolveStopsPromptly holds a solve of a dense 600-row
// system (some 2 ms a pivot, 256 pivots well over half a second) under
// a 20 ms deadline to returning ctx.Err() within 50 ms of the deadline:
// the context is looked at by work done, not only every pollPivots
// pivots.
func TestCancelledDenseSolveStopsPromptly(t *testing.T) {
	p := denseSystem(600, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	sol, err := p.SolveContext(ctx)
	late := time.Since(deadline)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("solve returned %v after %d pivots, want the deadline's error", err, sol.Pivots)
	}
	if late > 50*time.Millisecond {
		t.Fatalf("solve stopped %v after its deadline, want at most 50ms", late)
	}
	t.Logf("stopped %v after the deadline, %d pivots in", late, p.w.pivots)
}
