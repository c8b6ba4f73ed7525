package tfg

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// MaxTasks bounds the tasks a generator builds, as topology bounds a
// machine's nodes: a generous multiple of the largest graph the
// experiments use, and small enough that a short spec cannot make a
// generator allocate without limit.
const MaxTasks = 1 << 20

// Chain builds a linear pipeline of n tasks with uniform ops and message
// bytes; useful as the simplest pipelined workload.
func Chain(n int, ops, bytes int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("tfg: chain needs at least 1 task")
	}
	if n > MaxTasks {
		return nil, fmt.Errorf("tfg: chain of %d tasks exceeds %d", n, MaxTasks)
	}
	b := NewBuilder(fmt.Sprintf("chain-%d", n))
	prev := b.AddTask("t0", ops)
	for i := 1; i < n; i++ {
		cur := b.AddTask(fmt.Sprintf("t%d", i), ops)
		b.AddMessage(fmt.Sprintf("m%d", i-1), prev, cur, bytes)
		prev = cur
	}
	return b.Build()
}

// FanOutIn builds a scatter/gather TFG: one source task fanning out to
// width parallel workers which all feed one sink. This is the shape that
// creates the shared-link contention of the paper's Section 3 claim.
func FanOutIn(width int, ops, bytes int64) (*Graph, error) {
	if width < 1 {
		return nil, fmt.Errorf("tfg: fan width must be positive")
	}
	if width > MaxTasks-2 {
		return nil, fmt.Errorf("tfg: fan width %d exceeds %d tasks", width, MaxTasks)
	}
	b := NewBuilder(fmt.Sprintf("fan-%d", width))
	src := b.AddTask("src", ops)
	sink := b.AddTask("sink", ops)
	for i := 0; i < width; i++ {
		w := b.AddTask(fmt.Sprintf("w%d", i), ops)
		b.AddMessage(fmt.Sprintf("out%d", i), src, w, bytes)
		b.AddMessage(fmt.Sprintf("in%d", i), w, sink, bytes)
	}
	return b.Build()
}

// Diamond builds the four-task diamond A→{B,C}→D.
func Diamond(ops, bytes int64) (*Graph, error) {
	b := NewBuilder("diamond")
	a := b.AddTask("a", ops)
	bb := b.AddTask("b", ops)
	c := b.AddTask("c", ops)
	d := b.AddTask("d", ops)
	b.AddMessage("ab", a, bb, bytes)
	b.AddMessage("ac", a, c, bytes)
	b.AddMessage("bd", bb, d, bytes)
	b.AddMessage("cd", c, d, bytes)
	return b.Build()
}

// FFT builds the communication pattern of a radix-2 decimation-in-time
// FFT over 2^logN points: logN+1 layers of 2^logN tasks, each stage-k
// task receiving from its same-index predecessor and from the butterfly
// partner whose index differs in bit k. A classic real-time DSP
// pipeline whose long butterfly strides stress path assignment very
// differently from tree-shaped graphs.
func FFT(logN int, ops, bytes int64) (*Graph, error) {
	if logN < 1 || logN > 6 {
		return nil, fmt.Errorf("tfg: FFT logN %d out of [1,6]", logN)
	}
	n := 1 << logN
	b := NewBuilder(fmt.Sprintf("fft-%d", n))
	prev := make([]TaskID, n)
	for i := 0; i < n; i++ {
		prev[i] = b.AddTask(fmt.Sprintf("s0t%d", i), ops)
	}
	for stage := 1; stage <= logN; stage++ {
		cur := make([]TaskID, n)
		for i := 0; i < n; i++ {
			cur[i] = b.AddTask(fmt.Sprintf("s%dt%d", stage, i), ops)
		}
		for i := 0; i < n; i++ {
			partner := i ^ (1 << (stage - 1))
			b.AddMessage(fmt.Sprintf("s%d-%d-self", stage, i), prev[i], cur[i], bytes)
			b.AddMessage(fmt.Sprintf("s%d-%d-bfly", stage, i), prev[partner], cur[i], bytes)
		}
		prev = cur
	}
	return b.Build()
}

// Stencil builds one pipelined step of a 1-D halo exchange over width
// workers: a scatter layer, a compute layer where each worker receives
// halos from its ring neighbors' scatter tasks, and a gather layer.
// This is the communication skeleton of iterative grid solvers.
func Stencil(width int, ops, bytes, haloBytes int64) (*Graph, error) {
	if width < 3 {
		return nil, fmt.Errorf("tfg: stencil width %d < 3", width)
	}
	if width > (MaxTasks-2)/2 {
		return nil, fmt.Errorf("tfg: stencil width %d exceeds %d tasks", width, MaxTasks)
	}
	b := NewBuilder(fmt.Sprintf("stencil-%d", width))
	src := b.AddTask("scatter", ops)
	sink := b.AddTask("gather", ops)
	loads := make([]TaskID, width)
	for i := 0; i < width; i++ {
		loads[i] = b.AddTask(fmt.Sprintf("load%d", i), ops)
		b.AddMessage(fmt.Sprintf("in%d", i), src, loads[i], bytes)
	}
	for i := 0; i < width; i++ {
		c := b.AddTask(fmt.Sprintf("comp%d", i), ops)
		left := (i - 1 + width) % width
		right := (i + 1) % width
		b.AddMessage(fmt.Sprintf("own%d", i), loads[i], c, bytes)
		b.AddMessage(fmt.Sprintf("haloL%d", i), loads[left], c, haloBytes)
		b.AddMessage(fmt.Sprintf("haloR%d", i), loads[right], c, haloBytes)
		b.AddMessage(fmt.Sprintf("out%d", i), c, sink, bytes)
	}
	return b.Build()
}

// ParseWidths reads RandomLayered's layer widths from a comma-separated
// list in which "64*14" repeats the width 64 fourteen times. Spaces
// around a field and either side of its '*' are ignored. A width or a
// repeat that is not an integer, a repeat below 1 and an empty field
// are refused, the error naming the field; a caller adds its own prefix.
// So is a list of more than MaxTasks tasks, before it is expanded: a
// width below 1, which RandomLayered refuses, counts as one.
func ParseWidths(s string) ([]int, error) {
	var widths []int
	tasks := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		w, rep := part, 1
		if ws, rs, ok := strings.Cut(part, "*"); ok {
			w = strings.TrimSpace(ws)
			var err error
			if rep, err = strconv.Atoi(strings.TrimSpace(rs)); err != nil {
				return nil, fmt.Errorf("repeat %q: %v", part, err)
			}
			if rep < 1 {
				return nil, fmt.Errorf("repeat %q must be >= 1", part)
			}
		}
		v, err := strconv.Atoi(w)
		if err != nil {
			return nil, fmt.Errorf("width %q: %v", part, err)
		}
		if max(v, 1) > (MaxTasks-tasks)/rep {
			return nil, fmt.Errorf("widths %q: more than %d tasks", part, MaxTasks)
		}
		tasks += max(v, 1) * rep
		for range rep {
			widths = append(widths, v)
		}
	}
	return widths, nil
}

// RandomLayered builds a random layered DAG: layers of the given widths,
// every task getting at least one incoming message from the previous
// layer, with extra edges added with probability density. Ops are drawn
// uniformly from [minOps, maxOps] and bytes from [minBytes, maxBytes].
// The generator is deterministic for a given seed. Widths below 1, more
// than MaxTasks tasks in all, and more than MaxTasks pairs of tasks in
// adjacent layers — each pair takes a draw, and at density 1 a message
// — are refused before anything is built.
func RandomLayered(seed int64, widths []int, minOps, maxOps, minBytes, maxBytes int64, density float64) (*Graph, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("tfg: no layers")
	}
	tasks, pairs := 0, 0
	for li, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("tfg: layer %d width %d < 1", li, w)
		}
		if w > MaxTasks-tasks {
			return nil, fmt.Errorf("tfg: layer %d takes the graph past %d tasks", li, MaxTasks)
		}
		tasks += w
		if li > 0 {
			pairs += widths[li-1] * w // at most 2^40: no overflow
			if pairs > MaxTasks {
				return nil, fmt.Errorf("tfg: layer %d takes the graph past %d candidate messages", li, MaxTasks)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(fmt.Sprintf("rand-%d", seed))
	ri := func(lo, hi int64) int64 {
		if hi <= lo {
			return lo
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	var layers [][]TaskID
	for li, w := range widths {
		var layer []TaskID
		for i := 0; i < w; i++ {
			layer = append(layer, b.AddTask(fmt.Sprintf("l%dt%d", li, i), ri(minOps, maxOps)))
		}
		layers = append(layers, layer)
	}
	mid := 0
	for li := 1; li < len(layers); li++ {
		for _, dst := range layers[li] {
			src := layers[li-1][rng.Intn(len(layers[li-1]))]
			b.AddMessage(fmt.Sprintf("m%d", mid), src, dst, ri(minBytes, maxBytes))
			mid++
			for _, s := range layers[li-1] {
				if s != src && rng.Float64() < density {
					b.AddMessage(fmt.Sprintf("m%d", mid), s, dst, ri(minBytes, maxBytes))
					mid++
				}
			}
		}
	}
	return b.Build()
}
