package physplan

import (
	"fmt"
	"slices"
	"strings"
)

// FilterSpec is one WHERE conjunct: the variables it needs bound (only
// those a FOR path can bind — the planner places the filter at the
// earliest operator where all are available) and the compiled
// predicate.
type FilterSpec struct {
	Desc fmt.Stringer // rendered by EXPLAIN only
	Vars []string
	Fn   FilterFn
}

// Spec is the logical input to the planner: the FOR paths, the WHERE
// conjuncts, the INCLUDE paths with their projection recorder, and the
// RETURN variables.
type Spec struct {
	Paths   []Path
	Filters []FilterSpec
	Return  []string
	Include []Path
	// Out records the projected provenance subgraph. Required when
	// Include is non-empty.
	Out *Projection
	// Cancel, when non-nil, is polled by the long-running operators
	// (one check per start tuple / input row); a non-nil return aborts
	// the plan with that error. The engine wires a request context's
	// Err here so servers can bound query time.
	Cancel func() error
}

// Plan is a compiled physical plan.
type Plan struct {
	// Root computes the answer (one column per RETURN variable, in
	// order) and renders the operator tree for EXPLAIN.
	Root *Project
	// Order is the chosen evaluation order of Spec.Paths.
	Order []int
	// Schema is the plan-wide row layout (every FOR-path variable).
	Schema *Schema
}

// Answer runs the plan to its answer cells.
func (p *Plan) Answer() (Answer, error) { return p.Root.answer() }

// ExplainString renders the join order and the operator tree.
func (p *Plan) ExplainString() string {
	var sb strings.Builder
	if len(p.Order) > 1 {
		parts := make([]string, len(p.Order))
		for i, idx := range p.Order {
			parts[i] = fmt.Sprintf("%d", idx+1)
		}
		fmt.Fprintf(&sb, "join order: path %s\n", strings.Join(parts, " -> "))
	}
	sb.WriteString("physical plan:\n")
	p.Root.explain(&sb, 0)
	return sb.String()
}

// Compile builds the physical plan for spec over g: greedy ordering of
// the FOR paths by the selectivity their syntax shows (connected paths
// preferred, bound starts exploited), index-nested-loop extension where
// a path's start is bound, hash joins on shared variables otherwise,
// filters pushed to the earliest operator with their variables in
// scope, then dedup on the RETURN variables (fused into the last join
// where fusable allows), subgraph projection, and column projection.
func Compile(g Graph, spec Spec) (*Plan, error) {
	// Plan-wide schema: every FOR-path variable, first appearance
	// order. (Stable under reordering, so filter predicates compiled
	// against it stay valid regardless of the chosen join order.)
	var cols []string
	for _, p := range spec.Paths {
		var buf [8]string
		for _, v := range p.appendVars(buf[:0]) {
			if !slices.Contains(cols, v) {
				cols = append(cols, v)
			}
		}
	}
	schema := NewSchema(cols)
	order := greedyOrder(spec.Paths)

	bound := make(varSet, 0, 8)
	var root Op
	// Pushed-down filters are lenient pruning copies (see Filter); the
	// authoritative evaluation happens once at the end of the pipeline,
	// in query order, so errors and AND short-circuiting behave exactly
	// as the interpreter's evaluate-after-all-paths semantics.
	unpushed := make([]FilterSpec, len(spec.Filters))
	copy(unpushed, spec.Filters)
	pushFilters := func() {
		var rest []FilterSpec
		for _, f := range unpushed {
			if root != nil && varsBound(f.Vars, bound) {
				root = &Filter{input: root, desc: f.Desc, fn: f.Fn, lenient: true}
			} else {
				rest = append(rest, f)
			}
		}
		unpushed = rest
	}

	for oi, idx := range order {
		p := spec.Paths[idx]
		bp := bindPath(p, schema)
		start := bp.startBinding(bound)
		switch {
		case root == nil:
			root = &Scan{g: g, bp: bp, schema: schema, start: start, cancel: spec.Cancel}
		case startBound(p, bound):
			// Goal-directed: the start tuple (or first-edge derivation)
			// is bound by earlier paths — extend row by row.
			root = &Extend{input: root, g: g, bp: bp, schema: schema, start: start, cancel: spec.Cancel}
		default:
			// Independent scan hash-joined on the shared variables
			// (empty = cross product).
			shared := sharedVars(p, bound)
			onCols := make([]int, len(shared))
			for i, v := range shared {
				onCols[i] = schema.Col(v)
			}
			right := &Scan{g: g, bp: bp, schema: schema, start: start, cancel: spec.Cancel}
			root = &HashJoin{left: root, right: right, on: shared, onCols: onCols, schema: schema}
		}
		bound = bound.add(p)
		if oi < len(order)-1 {
			pushFilters()
		}
	}
	if root == nil {
		// No FOR paths: a single empty row (mirrors the interpreter's
		// unit seed binding).
		root = &Scan{g: g, bp: bindPath(Path{Nodes: []Node{{}}}, schema), schema: schema, cancel: spec.Cancel}
	}
	// The authoritative filters, in query order. Filters whose
	// variables no FOR path binds surface the interpreter's
	// unbound-variable errors here.
	for _, f := range spec.Filters {
		root = &Filter{input: root, desc: f.Desc, fn: f.Fn}
	}

	retCols := make([]int, len(spec.Return))
	for i, v := range spec.Return {
		retCols[i] = schema.Col(v)
	}
	if j, ok := root.(*HashJoin); ok && fusable(spec, retCols, schema) {
		// Dedup directly on the last join: one distinct join, bounded by
		// the output.
		root = newDistinctJoin(j, spec.Return, retCols, spec.Cancel)
	} else {
		root = &Dedup{input: root, on: spec.Return, onCols: retCols}
	}
	if len(spec.Include) > 0 {
		if spec.Out == nil {
			return nil, fmt.Errorf("physplan: INCLUDE paths require Spec.Out")
		}
		bps := make([]boundPath, len(spec.Include))
		for i, p := range spec.Include {
			bps[i] = bindPath(p, schema)
		}
		root = &Include{input: root, g: g, out: spec.Out, paths: bps}
	}
	return &Plan{
		Root:  &Project{input: root, cols: spec.Return, colIdx: retCols, cancel: spec.Cancel},
		Order: order, Schema: schema,
	}, nil
}

// fusable reports whether Dedup's choice of representative row is
// unobservable, so the dedup may fuse into the join beneath it: every
// returned variable has a column, and no INCLUDE path reads a column
// outside RETURN. (Authoritative filters between the two rule fusion
// out by sitting on top of the join.)
func fusable(spec Spec, retCols []int, schema *Schema) bool {
	if slices.Contains(retCols, -1) {
		return false
	}
	for _, p := range spec.Include {
		for _, v := range p.Vars() {
			if schema.Col(v) >= 0 && !slices.Contains(spec.Return, v) {
				return false
			}
		}
	}
	return true
}

// varSet is a set of a query's few variables.
type varSet []string

func (s varSet) has(v string) bool { return slices.Contains(s, v) }

// add returns s with p's variables added.
func (s varSet) add(p Path) varSet {
	var buf [8]string
	for _, v := range p.appendVars(buf[:0]) {
		if !s.has(v) {
			s = append(s, v)
		}
	}
	return s
}

func varsBound(vars []string, bound varSet) bool {
	for _, v := range vars {
		if !bound.has(v) {
			return false
		}
	}
	return true
}

// startBound reports whether evaluating p row-by-row can seed from a
// binding: its start node variable or first-edge derivation variable
// is already bound.
func startBound(p Path, bound varSet) bool {
	if v := p.Nodes[0].Var; v != "" && bound.has(v) {
		return true
	}
	if len(p.Edges) > 0 && p.Edges[0].Kind == EdgeDirect {
		if v := p.Edges[0].Var; v != "" && bound.has(v) {
			return true
		}
	}
	return false
}

func sharedVars(p Path, bound varSet) []string {
	var out []string
	for _, v := range p.Vars() {
		if bound.has(v) {
			out = append(out, v)
		}
	}
	return out
}

// startRank ranks where evaluating p starts, from the query syntax
// alone; lower runs first: 0 a start bound by an earlier path, 1 a
// key-pinned start, 2 a start named by a relation or by the first
// edge's mapping, 3 anything else (every tuple).
func startRank(p Path, bound varSet) int {
	switch {
	case startBound(p, bound):
		return 0
	case p.StartKey != nil:
		return 1
	case p.Nodes[0].Rel != "",
		len(p.Edges) > 0 && p.Edges[0].Kind == EdgeDirect && p.Edges[0].Mapping != "":
		return 2
	}
	return 3
}

// plusEdges counts p's <-+ edges, each a walk over every ancestor.
func plusEdges(p Path) int {
	n := 0
	for _, e := range p.Edges {
		if e.Kind == EdgePlus {
			n++
		}
	}
	return n
}

// greedyOrder picks the evaluation order of the FOR paths: the best
// ranked path first, then repeatedly the best ranked path connected to
// the bound variables (falling back to disconnected paths only when no
// connected one remains). A path ranks by startRank, then by fewer <-+
// edges; ties break toward query order.
func greedyOrder(paths []Path) []int {
	n := len(paths)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(varSet, 0, 8)
	for len(order) < n {
		best, bestRank, bestPlus, bestConnected := -1, 0, 0, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := len(order) == 0 || len(sharedVars(paths[i], bound)) > 0
			rank, plus := startRank(paths[i], bound), plusEdges(paths[i])
			better := false
			switch {
			case best == -1:
				better = true
			case connected != bestConnected:
				better = connected
			case rank != bestRank:
				better = rank < bestRank
			default:
				better = plus < bestPlus
			}
			if better {
				best, bestRank, bestPlus, bestConnected = i, rank, plus, connected
			}
		}
		used[best] = true
		order = append(order, best)
		bound = bound.add(paths[best])
	}
	return order
}
