package tfg

import (
	"slices"
	"testing"
)

func TestFFTShape(t *testing.T) {
	g, err := FFT(3, 100, 512) // 8-point FFT
	if err != nil {
		t.Fatal(err)
	}
	// 4 layers of 8 tasks; 3 stages of 16 messages.
	if g.NumTasks() != 32 {
		t.Errorf("tasks = %d, want 32", g.NumTasks())
	}
	if g.NumMessages() != 48 {
		t.Errorf("messages = %d, want 48", g.NumMessages())
	}
	if got := len(g.InputTasks()); got != 8 {
		t.Errorf("inputs = %d, want 8", got)
	}
	if got := len(g.OutputTasks()); got != 8 {
		t.Errorf("outputs = %d, want 8", got)
	}
	// Each non-input task has exactly two incoming messages (self +
	// butterfly partner).
	for _, task := range g.Tasks() {
		in := g.Incoming(task.ID)
		if len(in) == 0 {
			continue // an input task
		}
		if len(in) != 2 {
			t.Fatalf("task %s has %d inputs, want 2", task.Name, len(in))
		}
	}
}

func TestFFTButterflyPartners(t *testing.T) {
	g, err := FFT(2, 10, 64) // 4-point
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1, task index 0 must receive from stage-0 indices 0 and 1;
	// stage 2, index 0 from stage-1 indices 0 and 2.
	byName := map[string]TaskID{}
	for _, task := range g.Tasks() {
		byName[task.Name] = task.ID
	}
	wantPreds := map[string][]string{
		"s1t0": {"s0t0", "s0t1"},
		"s2t0": {"s1t0", "s1t2"},
		"s2t3": {"s1t3", "s1t1"},
	}
	for dst, preds := range wantPreds {
		got := map[TaskID]bool{}
		for _, mid := range g.Incoming(byName[dst]) {
			got[g.Message(mid).Src] = true
		}
		for _, p := range preds {
			if !got[byName[p]] {
				t.Errorf("%s should receive from %s", dst, p)
			}
		}
	}
}

func TestFFTRejectsBadSize(t *testing.T) {
	if _, err := FFT(0, 10, 64); err == nil {
		t.Error("logN 0 should fail")
	}
	if _, err := FFT(7, 10, 64); err == nil {
		t.Error("logN 7 should fail")
	}
}

func TestStencilShape(t *testing.T) {
	g, err := Stencil(4, 100, 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	// scatter + gather + 4 loads + 4 computes = 10 tasks.
	if g.NumTasks() != 10 {
		t.Errorf("tasks = %d, want 10", g.NumTasks())
	}
	// 4 in + 4*(own+2 halos+out) = 20 messages.
	if g.NumMessages() != 20 {
		t.Errorf("messages = %d, want 20", g.NumMessages())
	}
	if len(g.InputTasks()) != 1 || len(g.OutputTasks()) != 1 {
		t.Error("stencil should have one input and one output task")
	}
	// Every compute task has 3 inputs: own block plus two halos.
	for _, task := range g.Tasks() {
		if len(task.Name) > 4 && task.Name[:4] == "comp" {
			if got := len(g.Incoming(task.ID)); got != 3 {
				t.Errorf("%s has %d inputs, want 3", task.Name, got)
			}
		}
	}
}

func TestStencilRejectsNarrow(t *testing.T) {
	if _, err := Stencil(2, 10, 64, 8); err == nil {
		t.Error("width 2 should fail")
	}
}

// TestParseWidths: repeats expand in place, spaces around fields and
// either side of '*' are ignored, and a zero or non-integer repeat and
// an empty field are refused naming the field, and so is the field that
// takes the list past MaxTasks tasks. The layered specs of the
// repository benchmark's compile_lp and compile_large pools parse to the
// layers their graphs have always been built from.
func TestParseWidths(t *testing.T) {
	rep := func(w, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = w
		}
		return out
	}
	join := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, c := range []struct {
		in   string
		want []int
		err  string
	}{
		{in: "2,4,4,2", want: []int{2, 4, 4, 2}},
		{in: "64*14", want: rep(64, 14)},
		{in: "8,3*2,8", want: []int{8, 3, 3, 8}},
		{in: " 8 , 3 * 2 ,8 ", want: []int{8, 3, 3, 8}},
		{in: "5*1", want: []int{5}},
		// compile_lp's layered:3,16,16*6,16,… and layered:3,8,8*5,8,…,
		// layered:5,16,32*6,16,… and compile_large's layered:7,32,64*6,32,…
		{in: "16,16*6,16", want: rep(16, 8)},
		{in: "8,8*5,8", want: rep(8, 7)},
		{in: "16,32*6,16", want: join([]int{16}, rep(32, 6), []int{16})},
		{in: "32,64*6,32", want: join([]int{32}, rep(64, 6), []int{32})},
		{in: "8,4*0,8", err: `repeat "4*0" must be >= 1`},
		{in: "4*-2", err: `repeat "4*-2" must be >= 1`},
		{in: "8,4*x", err: `repeat "4*x": strconv.Atoi: parsing "x": invalid syntax`},
		{in: "8,,8", err: `width "": strconv.Atoi: parsing "": invalid syntax`},
		{in: "", err: `width "": strconv.Atoi: parsing "": invalid syntax`},
		{in: "x*2", err: `width "x*2": strconv.Atoi: parsing "x": invalid syntax`},
		// MaxTasks, checked on the running total before a field expands.
		{in: "1048575, 1", want: []int{1048575, 1}},
		{in: "1048575,2", err: `widths "2": more than 1048576 tasks`},
		{in: "1*2000000", err: `widths "1*2000000": more than 1048576 tasks`},
		{in: "2000000", err: `widths "2000000": more than 1048576 tasks`},
		{in: "8,1000*2000", err: `widths "1000*2000": more than 1048576 tasks`},
		{in: "1024*1023,0*1024,1", err: `widths "1": more than 1048576 tasks`},
	} {
		got, err := ParseWidths(c.in)
		switch {
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("ParseWidths(%q) = %v, %v; want the error %q", c.in, got, err, c.err)
		case c.err == "" && (err != nil || !slices.Equal(got, c.want)):
			t.Errorf("ParseWidths(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestGeneratorsRefuseMoreThanMaxTasks: every generator with a size
// parameter refuses one that would take the graph past MaxTasks tasks —
// or, for RandomLayered, past MaxTasks pairs of tasks in adjacent
// layers — before it adds a task.
func TestGeneratorsRefuseMoreThanMaxTasks(t *testing.T) {
	for name, build := range map[string]func() (*Graph, error){
		"chain":          func() (*Graph, error) { return Chain(MaxTasks+1, 1, 1) },
		"fan":            func() (*Graph, error) { return FanOutIn(MaxTasks-1, 1, 1) },
		"stencil":        func() (*Graph, error) { return Stencil(MaxTasks/2, 1, 1, 1) },
		"layered":        func() (*Graph, error) { return RandomLayered(1, []int{MaxTasks, 1}, 1, 1, 1, 1, 0) },
		"layered, wide":  func() (*Graph, error) { return RandomLayered(1, []int{MaxTasks + 1}, 1, 1, 1, 1, 0) },
		"layered, dense": func() (*Graph, error) { return RandomLayered(1, []int{1, 1024, 1025}, 1, 1, 1, 1, 0) },
	} {
		var err error
		if n := testing.AllocsPerRun(1, func() { _, err = build() }); err == nil || n > 8 {
			t.Errorf("%s: %v after %v allocations; want a refusal before any task", name, err, n)
		}
	}
}
