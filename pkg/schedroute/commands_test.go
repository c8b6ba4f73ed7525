package schedroute

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"schedroute/internal/schedule"
)

// TestOmegaNeverGrowsPastOneCommandPerSliceHop solves every distinct
// problem of the repository benchmark's five pools and the standard
// configurations' load grid, and holds each Ω's command count to the
// one the emission of one command per (slice, hop) gave. Those verdicts
// and counts are pinned in testdata/unchained_commands.json. Chaining an
// interval's sets and merging abutting slices may only shrink an Ω, and
// must not move a verdict.
func TestOmegaNeverGrowsPastOneCommandPerSliceHop(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "unchained_commands.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Problem  Problem `json:"problem"`
		Feasible bool    `json:"feasible"`
		Commands int     `json:"commands"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	for _, r := range rows {
		b, err := NewProblem(r.Problem)
		if err != nil {
			t.Fatal(err)
		}
		res, err := schedule.Compute(b.ScheduleProblem(), schedule.Options{Seed: 1, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible != r.Feasible {
			t.Errorf("%+v: feasible %t, %t before", r.Problem, res.Feasible, r.Feasible)
		}
		if !res.Feasible || !r.Feasible {
			continue
		}
		if got := res.Omega.NumCommands(); got > r.Commands {
			t.Errorf("%+v: %d commands, %d before", r.Problem, got, r.Commands)
		}
		before += r.Commands
		after += res.Omega.NumCommands()
	}
	t.Logf("%d problems: %d commands, %d one per (slice, hop)", len(rows), after, before)
}
