package provgraph

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/model"
)

// WriteDOT renders the graph in Graphviz DOT format in the visual
// vocabulary of Figure 1: rectangles for tuple nodes (boldface label
// for local contributions), ellipses labeled with the mapping name for
// derivation nodes, and small '+' ovals feeding leaf tuples. This is
// the backend for the "interactive provenance browsers and viewers"
// use case of Section 1.
func WriteDOT(w io.Writer, g *Graph, title string) error {
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q;\n", title)
	}
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [fontsize=10];\n")

	ids := make(map[*TupleNode]string, g.NumTuples())
	for i, tn := range g.Tuples() {
		id := fmt.Sprintf("t%d", i)
		ids[tn] = id
		style := "shape=box"
		if tn.Leaf {
			style += ", style=bold"
		}
		fmt.Fprintf(&b, "  %s [%s, label=%q];\n", id, style, tupleLabel(tn))
		if tn.Leaf {
			fmt.Fprintf(&b, "  plus_%s [shape=oval, label=\"+\", width=0.2, height=0.2];\n", id)
			fmt.Fprintf(&b, "  plus_%s -> %s;\n", id, id)
		}
	}
	for i, d := range g.Derivations() {
		id := fmt.Sprintf("d%d", i)
		fmt.Fprintf(&b, "  %s [shape=ellipse, label=%q];\n", id, d.Mapping)
		for _, src := range d.Sources {
			fmt.Fprintf(&b, "  %s -> %s;\n", ids[src], id)
		}
		for _, tgt := range d.Targets {
			fmt.Fprintf(&b, "  %s -> %s;\n", id, ids[tgt])
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func tupleLabel(tn *TupleNode) string {
	if tn.Row != nil {
		return tn.Ref.Rel + tn.Row.Format()
	}
	return tn.Ref.String()
}

// FormatRef renders a tuple ref with its row when available — used by
// the CLI and examples for readable output.
func FormatRef(g *Graph, ref model.TupleRef) string {
	if tn, ok := g.Lookup(ref); ok && tn.Row != nil {
		return tupleLabel(tn)
	}
	return ref.String()
}
