// Package proql implements ProQL, the provenance query language of
// Sections 3–4 of the paper: the graph-projection core (FOR / WHERE /
// INCLUDE PATH / RETURN) and the annotation-computation extension
// (EVALUATE <semiring> OF { ... } ASSIGNING EACH ...).
//
// Two evaluation backends are provided, mirroring the paper's
// architecture:
//
//   - The relational backend (Section 4) translates a query into a
//     union of conjunctive rules over provenance relations by pattern
//     matching on the provenance schema graph and rule unfolding, then
//     executes the rules as relational plans with a final semiring
//     aggregation. It supports the anchored-path queries that all of
//     the paper's experiments use, and is the backend the ASR indexes
//     of Section 5 (internal/asr, through Engine.RewriteRules)
//     accelerate.
//   - The path backend evaluates the full language (multiple path
//     expressions, derivation variables, common-provenance joins) by
//     physical path-navigation plans over the provenance relations of
//     a pinned snapshot; it reads no ASR.
//
// Exec runs every query on the path executor unless a call asks for
// the relational backend.
package proql

import (
	"slices"
	"strings"

	"repro/internal/model"
)

// Query is a parsed ProQL query.
type Query struct {
	// Evaluate names the semiring of an EVALUATE clause; empty for
	// pure graph-projection queries.
	Evaluate string
	// LeafAssign is the ASSIGNING EACH leaf_node clause (optional).
	LeafAssign *AssignClause
	// MapAssign is the ASSIGNING EACH mapping clause (optional).
	MapAssign *AssignClause
	// Projection is the graph-projection block.
	Projection Projection

	// Cancel, when non-nil, is polled during execution, from the
	// evaluating goroutine, once per result row / start tuple; a non-nil
	// return aborts the query with that error. It is per-request state.
	// Set it directly or via the ctx of Exec and Eval.
	Cancel func() error
}

// Projection is the FOR / WHERE / INCLUDE PATH / RETURN block.
type Projection struct {
	For     []PathExpr
	Where   Cond // nil when absent
	Include []PathExpr
	Return  []string
}

// NodePattern matches a tuple node: [relation-name variable]; both
// parts optional.
type NodePattern struct {
	Rel string
	Var string
}

func (n NodePattern) String() string {
	switch {
	case n.Rel != "" && n.Var != "":
		return "[" + n.Rel + " $" + n.Var + "]"
	case n.Rel != "":
		return "[" + n.Rel + "]"
	case n.Var != "":
		return "[$" + n.Var + "]"
	}
	return "[]"
}

// EdgeKind distinguishes single derivation steps from <-+ paths.
type EdgeKind int

// Edge kinds.
const (
	EdgeDirect EdgeKind = iota // <- , <mapping , <$var
	EdgePlus                   // <-+ (one or more steps)
)

// EdgePattern matches a derivation step (or, for EdgePlus, a path of
// one or more steps). Mapping restricts to a named mapping; Var binds a
// derivation variable. Both are only meaningful for EdgeDirect.
type EdgePattern struct {
	Kind    EdgeKind
	Mapping string
	Var     string
}

func (e EdgePattern) String() string {
	switch {
	case e.Kind == EdgePlus:
		return "<-+"
	case e.Mapping != "":
		return "<" + e.Mapping
	case e.Var != "":
		return "<$" + e.Var
	}
	return "<-"
}

// PathExpr is an alternating sequence of node and edge patterns,
// written left-to-right from derived tuples back toward their sources:
// [O $x] <-+ [A $y].
type PathExpr struct {
	Nodes []NodePattern // len = len(Edges)+1
	Edges []EdgePattern
}

func (p PathExpr) String() string {
	var sb strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			sb.WriteByte(' ')
			sb.WriteString(p.Edges[i-1].String())
			sb.WriteByte(' ')
		}
		sb.WriteString(n.String())
	}
	return sb.String()
}

// Vars returns the variables bound by the path, tuple vars then
// derivation vars, in order of appearance.
func (p PathExpr) Vars() []string {
	var out []string
	for _, n := range p.Nodes {
		if n.Var != "" {
			out = append(out, n.Var)
		}
	}
	for _, e := range p.Edges {
		if e.Var != "" {
			out = append(out, e.Var)
		}
	}
	return out
}

// binds reports whether v is one of the path's variables.
func (p PathExpr) binds(v string) bool {
	return slices.ContainsFunc(p.Nodes, func(n NodePattern) bool { return n.Var == v }) ||
		slices.ContainsFunc(p.Edges, func(e EdgePattern) bool { return e.Var == v })
}

// Cond is a WHERE-clause condition.
type Cond interface{ condString() string }

// CmpOperand is one side of a comparison.
type CmpOperand struct {
	// Var references a bound variable ($x); with Attr set it is an
	// attribute access ($x.height).
	Var  string
	Attr string
	// Lit is a literal datum (when Var == ""). Bare identifiers in
	// comparisons (mapping names, e.g. $p = m1) are parsed as string
	// literals.
	Lit model.Datum
}

func (o CmpOperand) String() string {
	if o.Var != "" {
		if o.Attr != "" {
			return "$" + o.Var + "." + o.Attr
		}
		return "$" + o.Var
	}
	return model.FormatDatum(o.Lit)
}

// CondCmp compares two operands.
type CondCmp struct {
	Op   string // "=", "!=", "<", "<=", ">", ">="
	L, R CmpOperand
}

func (c CondCmp) condString() string { return c.L.String() + " " + c.Op + " " + c.R.String() }

// CondIn tests relation membership: $x IN C.
type CondIn struct {
	Var string
	Rel string
}

func (c CondIn) condString() string { return "$" + c.Var + " in " + c.Rel }

// CondAnd is conjunction.
type CondAnd struct{ L, R Cond }

func (c CondAnd) condString() string {
	return "(" + c.L.condString() + " AND " + c.R.condString() + ")"
}

// CondOr is disjunction.
type CondOr struct{ L, R Cond }

func (c CondOr) condString() string {
	return "(" + c.L.condString() + " OR " + c.R.condString() + ")"
}

// CondNot is negation.
type CondNot struct{ E Cond }

func (c CondNot) condString() string { return "(NOT " + c.E.condString() + ")" }

// CondPath is an existential path condition (a path expression in the
// WHERE clause, evaluated as an existence test).
type CondPath struct{ Path PathExpr }

func (c CondPath) condString() string { return c.Path.String() }

// AssignValue is the value of a SET statement: a literal, or the
// mapping-function argument variable ($z → identity on the input).
type AssignValue struct {
	Lit    model.Datum
	UseArg bool
}

// AssignCase is one CASE condition : SET value arm.
type AssignCase struct {
	Cond  Cond
	Value AssignValue
}

// AssignClause is an ASSIGNING EACH block: leaf_node $y { CASE ... }
// or mapping $p($z) { CASE ... }. If multiple CASE conditions match,
// the first one is followed (paper footnote 3). Default nil means the
// semiring's One for leaves and the identity function for mappings.
type AssignClause struct {
	// Kind is "leaf_node" or "mapping".
	Kind string
	// Var iterates over leaf nodes or mappings.
	Var string
	// ArgVar is the mapping-function input variable ($z); empty for
	// leaf clauses.
	ArgVar  string
	Cases   []AssignCase
	Default *AssignValue
}
