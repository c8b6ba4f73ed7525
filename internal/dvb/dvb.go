// Package dvb reconstructs the DARPA Vision Benchmark task-flow graph of
// the paper's Fig. 1 (Weems et al., "An integrated image understanding
// benchmark", 1988), the workload used for every experiment in Section 6.
//
// The figure in the available scan is OCR-garbled, so the graph shape is
// a documented reconstruction (see DESIGN.md §3.9): an input/low-level
// vision task fans out to n object-model matching branches of two stages
// each, which merge into a fixed five-stage recognition chain. The
// legible figure data is preserved exactly:
//
//	message sizes (bytes): a=192, b=d=f=1536, c=3200, g=1728, h=768, i=384
//	task operation counts: 1925 for the heavy stages, 400 for the
//	per-model matching stages
//
// Because the paper's experiments assume all tasks take the same time
// (Section 6), only the message sizes, the fan-out degree and the
// precedence structure influence the reproduced results; all three come
// from the legible parts of Fig. 1.
package dvb

import (
	"fmt"

	"schedroute/internal/tfg"
)

// Message sizes in bytes, from Fig. 1.
const (
	BytesA = 192  // input task -> each model branch
	BytesB = 1536 // model match -> model verify (per branch)
	BytesC = 3200 // model verify -> merge (per branch); the longest message
	BytesD = 1536 // merge -> hough
	BytesF = 1536 // hough -> probe
	BytesG = 1728 // probe -> refine
	BytesH = 768  // refine -> decide
	BytesI = 384  // decide -> output
)

// Task operation counts, from Fig. 1.
const (
	OpsHeavy = 1925 // input, merge and chain stages
	OpsModel = 400  // per-object-model stages
)

// DefaultModels is the object-model count used by the reproduction's
// experiments. Four branches keep the merge task's fan-in within the
// degree of every 64-node network the paper evaluates (the 8x8 torus
// has degree 4): with more branches the no-slack B=64 "c" messages,
// which all carry identical windows, could never enter the merge node
// contention-free at any load, whereas the paper's Fig. 7 shows
// scheduled routing succeeding at low loads. See DESIGN.md §3.9.
const DefaultModels = 4

// New builds the reconstructed DVB TFG for n object models. The graph
// has 2n+7 tasks and 3n+5 messages.
func New(n int) (*tfg.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("dvb: need at least one object model, got %d", n)
	}
	if n > (tfg.MaxTasks-7)/2 { // 7 fixed tasks, two per model
		return nil, fmt.Errorf("dvb: %d object models exceed %d tasks", n, tfg.MaxTasks)
	}
	b := tfg.NewBuilder(fmt.Sprintf("dvb-%d", n))

	input := b.AddTask("input", OpsHeavy)
	merge := b.AddTask("merge", OpsHeavy)
	hough := b.AddTask("hough", OpsHeavy)
	probe := b.AddTask("probe", OpsHeavy)
	refine := b.AddTask("refine", OpsHeavy)
	decide := b.AddTask("decide", OpsHeavy)

	for j := 0; j < n; j++ {
		match := b.AddTask(fmt.Sprintf("match%d", j), OpsModel)
		verify := b.AddTask(fmt.Sprintf("verify%d", j), OpsModel)
		b.AddMessage(fmt.Sprintf("a%d", j), input, match, BytesA)
		b.AddMessage(fmt.Sprintf("b%d", j), match, verify, BytesB)
		b.AddMessage(fmt.Sprintf("c%d", j), verify, merge, BytesC)
	}
	output := b.AddTask("output", OpsHeavy)
	b.AddMessage("d", merge, hough, BytesD)
	b.AddMessage("f", hough, probe, BytesF)
	b.AddMessage("g", probe, refine, BytesG)
	b.AddMessage("h", refine, decide, BytesH)
	b.AddMessage("i", decide, output, BytesI)

	return b.Build()
}

// Timing returns the Section 6 calibration for the DVB graph at the
// given link bandwidth (bytes/µs): every task takes τc, chosen so that
// τm/τc = 1 at 64 bytes/µs (τc = 3200/64 = 50 µs) and 0.5 at
// 128 bytes/µs. Any bandwidth is accepted; τc stays fixed at 50 µs so
// higher bandwidth lowers the communication intensity exactly as in the
// paper.
func Timing(g *tfg.Graph, bandwidth float64) (*tfg.Timing, error) {
	const tauC = float64(BytesC) / 64.0 // 50 µs
	return tfg.NewUniformTiming(g, tauC, bandwidth)
}
