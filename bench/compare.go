package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// Spec is BENCHMARK.json, the contract the driver reads.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric of BENCHMARK.json; per-layer metrics carry
// no bound.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// maxBound is the contract's cap on a regression bound.
const maxBound = 0.25

// loadSpec finds BENCHMARK.json from the root of the repository or from
// the benchmark's own directory.
func loadSpec() (*Spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// Stat summarises one metric of one workload over repeated runs.
type Stat struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, the figure the driver holds to the bound.
	Spread float64 `json:"spread"`
	// Bound is BENCHMARK.json's; Suggested is max(5 %, 2 x spread) for a
	// metric that repeats within the contract's cap, and 0 for one that
	// does not and should be demoted to a per-layer metric.
	Bound     float64 `json:"bound"`
	Suggested float64 `json:"suggested_bound"`
}

// RepeatDoc is what -repeat prints and -compare reads.
type RepeatDoc struct {
	Runs  int                         `json:"runs"`
	Seeds []int64                     `json:"seeds"`
	Env   envInfo                     `json:"env"`
	Stats map[string]map[string]*Stat `json:"stats"`
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// method the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func newStat(unit string, values []float64, bound float64) *Stat {
	s := &Stat{Unit: unit, Values: values, Bound: bound}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / s.Median
	}
	if s.Spread <= maxBound {
		s.Suggested = min(maxBound, max(0.05, 2*s.Spread))
	}
	return s
}

// repeatSuite runs the timed suite n times, each time with another seed
// as the driver does, and prints the statistics. It fails when a bound
// of BENCHMARK.json is tighter than the spread just measured.
func repeatSuite(n int, seed int64, seconds float64) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	doc := &RepeatDoc{Runs: n, Env: environment(), Stats: map[string]map[string]*Stat{}}
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		doc.Seeds = append(doc.Seeds, s)
		suite, err := runSuite(s, seconds, false, true)
		if err != nil {
			return err
		}
		if !suite.Correct {
			return fmt.Errorf("seed %d: correctness checks failed", s)
		}
		for w, wd := range suite.Workloads {
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for m, v := range wd.EndToEnd {
				values[w][m] = append(values[w][m], v.Value)
			}
		}
	}
	var tight []string
	for _, w := range workloadNames {
		doc.Stats[w] = map[string]*Stat{}
		for _, m := range spec.EndToEnd {
			st := newStat(m.Unit, values[w][m.Name], *m.Bound)
			doc.Stats[w][m.Name] = st
			if m.Name != "setup_s" && st.Spread > st.Bound {
				tight = append(tight, fmt.Sprintf("%s %s: spread %.3f over bound %.3f", w, m.Name, st.Spread, st.Bound))
			}
		}
	}
	if err := printIndented(doc); err != nil {
		return err
	}
	printStats(doc, spec)
	if len(tight) > 0 {
		return fmt.Errorf("bounds tighter than the measured spread: %v", tight)
	}
	return nil
}

func printStats(doc *RepeatDoc, spec *Spec) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tsuggested\t")
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			s := doc.Stats[w][m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g\t%.4g\t%.1f%%\t%.1f%%\t%.1f%%\t\n", w, m.Name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread, 100*s.Bound, 100*s.Suggested)
		}
	}
	tw.Flush()
}

// readStats loads a -repeat document, or a single suite document as a
// one-run repeat.
func readStats(path string, spec *Spec) (*RepeatDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rd RepeatDoc
	if err := json.Unmarshal(b, &rd); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rd.Stats != nil {
		return &rd, nil
	}
	var sd SuiteDoc
	if err := json.Unmarshal(b, &sd); err != nil || sd.Workloads == nil {
		return nil, fmt.Errorf("%s: neither a -repeat document nor a suite document", path)
	}
	rd = RepeatDoc{Runs: 1, Seeds: []int64{sd.Seed}, Env: sd.Env, Stats: map[string]map[string]*Stat{}}
	for w, wd := range sd.Workloads {
		rd.Stats[w] = map[string]*Stat{}
		for _, m := range spec.EndToEnd {
			if v, ok := wd.EndToEnd[m.Name]; ok {
				rd.Stats[w][m.Name] = newStat(v.Unit, []float64{v.Value}, *m.Bound)
			}
		}
	}
	return &rd, nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the ratio with its base, the bound and a verdict. A metric
// is worse when b's median is worse than a's by more than the bound,
// and unresolved when either side's spread is wider than the bound —
// unless every run of b reads better than every run of a.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare a.json b.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readStats(args[0], spec)
	if err != nil {
		return err
	}
	b, err := readStats(args[1], spec)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\ta (%d runs)\tb (%d runs)\tb/a\tbase a\tbound\tverdict\t\n", a.Runs, b.Runs)
	worse := 0
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			sa, sb := a.Stats[w][m.Name], b.Stats[w][m.Name]
			if sa == nil || sb == nil {
				continue
			}
			verdict := compareVerdict(sa, sb, m.Better == "higher", *m.Bound)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.4f\t%.5g %s\t%.1f%%\t%s\t\n", w, m.Name, sa.Median, sb.Median, sb.Median/sa.Median, sa.Median, sa.Unit, 100**m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}

func compareVerdict(a, b *Stat, higherBetter bool, bound float64) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	worseBy := sign * (b.Median - a.Median) / a.Median
	if max(a.Spread, b.Spread) > bound {
		// Resolved all the same when every run of b beats every run of a.
		bWorst, aBest := b.Values[0], a.Values[0]
		for _, v := range b.Values {
			if sign*v > sign*bWorst {
				bWorst = v
			}
		}
		for _, v := range a.Values {
			if sign*v < sign*aBest {
				aBest = v
			}
		}
		if sign*bWorst < sign*aBest {
			return "ok"
		}
		return "unresolved"
	}
	if worseBy > bound {
		return "worse"
	}
	return "ok"
}
