// Command traceview converts a recorded solve trace into the Chrome
// trace_event JSON format, loadable in chrome://tracing or Perfetto.
// It accepts any of the three shapes the toolchain produces: a raw
// span tree (srsched -trace-out already emits Chrome format, but the
// library's trace.Tree JSON is also accepted), the schema-versioned
// envelope from ?debug=trace, or a whole /v1/schedule / /v1/repair
// response with the trace field attached.
//
// Usage:
//
//	curl -s 'localhost:8080/v1/schedule?debug=trace' -d @req.json | traceview > trace.json
//	traceview -text response.json        # render as an indented tree instead
//	traceview -o trace.json response.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"schedroute/internal/cliutil"
	"schedroute/internal/trace"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	text := flag.Bool("text", false, "render the trace as an indented text tree instead of Chrome JSON")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "traceview: at most one input file")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			cliutil.Fatal("traceview", err)
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		cliutil.Fatal("traceview", err)
	}
	tree, err := extract(raw)
	if err != nil {
		cliutil.Fatal("traceview", err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cliutil.Fatal("traceview", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				cliutil.Fatal("traceview", err)
			}
		}()
		w = f
	}
	if *text {
		err = tree.Render(w)
	} else {
		err = trace.WriteChromeTrace(w, tree)
	}
	if err != nil {
		cliutil.Fatal("traceview", err)
	}
}

// extract pulls the span tree out of whichever wrapper the input uses:
// a full API response ("trace" envelope inside), a bare envelope
// ("root" inside), or a raw tree ("name" at the top level).
func extract(raw []byte) (*trace.Tree, error) {
	var doc struct {
		Trace *struct {
			Root *trace.Tree `json:"root"`
		} `json:"trace"`
		Root *trace.Tree `json:"root"`
		Name string      `json:"name"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse input: %w", err)
	}
	switch {
	case doc.Trace != nil && doc.Trace.Root != nil:
		return doc.Trace.Root, nil
	case doc.Root != nil:
		return doc.Root, nil
	case doc.Name != "":
		var t trace.Tree
		if err := json.Unmarshal(raw, &t); err != nil {
			return nil, fmt.Errorf("parse span tree: %w", err)
		}
		return &t, nil
	}
	return nil, fmt.Errorf("input has no trace: expected a span tree, a trace envelope, or an API response with ?debug=trace")
}
