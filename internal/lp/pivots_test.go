package lp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updatePivots = flag.Bool("update-pivots", false, "rewrite the property families' lines of testdata/pivots.golden")

// pivotsGolden holds one line per solved system: family, seed, status and
// pivots. The property families' lines come first; the sec5.2/ lines
// after them belong to internal/schedule's TestAllocationLPAnswersCheck.
const pivotsGolden = "testdata/pivots.golden"

// TestPivotsMatchGolden pins the status and pivot count of every system
// of every property family. The golden was generated before the entering
// column was gathered from per-class row bitsets, so a line that moves is
// a different pivot sequence, not a faster way to the same one.
func TestPivotsMatchGolden(t *testing.T) {
	var got []string
	for _, f := range families {
		for seed := int64(0); seed < familySeeds; seed++ {
			s := f.problem(seed).Solve()
			got = append(got, fmt.Sprintf("%s %d %v %d", f.name, seed, s.Status, s.Pivots))
		}
	}
	raw, err := os.ReadFile(pivotsGolden)
	if err != nil && !(*updatePivots && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	var want, rest []string
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "sec5.2/"):
			rest = append(rest, line)
		default:
			want = append(want, line)
		}
	}
	if *updatePivots {
		out := strings.Join(append(got, rest...), "\n") + "\n"
		if err := os.WriteFile(pivotsGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d family lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more lines differ", bad-10)
	}
}
