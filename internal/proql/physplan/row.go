// Package physplan is the physical layer of ProQL's path-navigation
// backend: it compiles a query's FOR/WHERE/INCLUDE/RETURN block into a
// DAG of streaming physical operators over a provenance store (the
// Graph interface), choosing a join order for the FOR path expressions
// from the selectivity their syntax shows (no statistics).
//
// The operator set mirrors a relational engine specialized to
// provenance-graph navigation:
//
//   - Scan enumerates the instance-level matches of one path
//     expression, seeding from the graph's label indexes (relation →
//     tuples, mapping → derivations).
//   - Extend is the index-nested-loop join: it extends each incoming
//     row through a path whose start is already bound, following
//     per-node adjacency lists (goal-directed evaluation).
//   - HashJoin joins two independent sub-plans on their shared
//     variables; DistinctJoin is a HashJoin fused with the dedup above
//     it, emitting each distinct returned combination once without
//     materializing the join.
//   - Filter, Dedup, Include and Project do WHERE evaluation,
//     duplicate elimination on the RETURN variables, provenance
//     subgraph projection, and final column selection.
//
// Rows are positional ([]any indexed by a Schema), holding Tuple /
// Deriv handles; nil marks a variable not yet bound. All operators of
// one plan share the plan-wide schema, so joins merge rows without
// column remapping. Operators push their rows to a yield callback
// (Op.each). A path match is bound in place on one scratch row and lent
// to its consumer, as are the rows a join merges: an operator that
// keeps rows (HashJoin's build side) copies them, and the distinct
// join reads node codes off the borrowed rows and keeps none.
// The engine takes a plan's result as an Answer — per RETURN column a
// table of distinct values, and int32 cells indexing them — which
// DistinctJoin writes from its dense ids and Project, the plan's root,
// builds from any other input, so no answer row is copied on the way
// out. Operators run
// over the Graph storage interface, so the same plans serve any store
// that implements it.
package physplan

import (
	"slices"
	"strconv"
)

// Row is one variable binding: a slice indexed by the plan Schema,
// holding Tuple or Deriv handles (nil = unbound).
type Row []any

// Schema maps variable names to row columns: a query's few variables,
// found by a scan.
type Schema struct {
	cols []string
}

// NewSchema builds a schema over the given column (variable) names.
func NewSchema(cols []string) *Schema { return &Schema{cols: cols} }

// Extend returns a schema with extra columns appended (names already
// present are ignored).
func (s *Schema) Extend(extra []string) *Schema {
	cols := make([]string, len(s.cols), len(s.cols)+len(extra))
	copy(cols, s.cols)
	for _, c := range extra {
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
	}
	return NewSchema(cols)
}

// Width returns the row width.
func (s *Schema) Width() int { return len(s.cols) }

// Col returns the column of a variable, or -1 if absent.
func (s *Schema) Col(name string) int {
	return slices.Index(s.cols, name)
}

// rowAlloc carves fixed-width rows out of shared backing arrays whose
// size doubles from one row up to 256: a one-row result costs one
// allocation, a large one an allocation per 256 rows instead of one per
// row. A chunk stays alive while any row cut from it does.
type rowAlloc struct {
	width int
	chunk int // rows in the last chunk
	buf   []any
}

// copy returns a fresh row holding r: how a consumer keeps a borrowed
// row.
func (a *rowAlloc) copy(r Row) Row {
	if len(a.buf) < a.width {
		a.chunk = min(max(2*a.chunk, 1), 256)
		a.buf = make([]any, a.chunk*a.width)
	}
	out := Row(a.buf[:a.width:a.width])
	a.buf = a.buf[a.width:]
	copy(out, r)
	return out
}

// keyer encodes some columns of a row as the uint64 key of the join
// and dedup maps. One column is its node code; two columns whose codes
// fit 31 bits are both codes side by side; so bit 63 stays clear. Any
// other key — more columns, oversize ordinals — falls back to RowKey's
// string, which the keyer numbers with bit 63 set. Keys from one keyer
// are comparable; a keyer serves one goroutine.
type keyer struct {
	wide map[string]uint64
}

func (k *keyer) key(r Row, cols []int) uint64 {
	switch len(cols) {
	case 0:
		return 0
	case 1:
		if c := codeAt(r, cols[0]); c < 1<<63 {
			return c
		}
	case 2:
		if a, b := codeAt(r, cols[0]), codeAt(r, cols[1]); a < 1<<31 && b < 1<<31 {
			return a<<32 | b
		}
	}
	s := RowKey(r, cols)
	id, ok := k.wide[s]
	if !ok {
		if k.wide == nil {
			k.wide = map[string]uint64{}
		}
		id = 1<<63 | uint64(len(k.wide))
		k.wide[s] = id
	}
	return id
}

// nodeCode is the fixed-width code of one bound value: the node's
// ordinal above a two-bit tag (1 tuple, 2 derivation); 0 is unbound.
func nodeCode(v any) uint64 {
	switch n := v.(type) {
	case Tuple:
		return uint64(n.TupleOrd())<<2 | 1
	case Deriv:
		return uint64(n.DerivOrd())<<2 | 2
	}
	return 0
}

// codeAt is the node code of column c of r; a column of -1 is unbound.
func codeAt(r Row, c int) uint64 {
	if c < 0 {
		return 0
	}
	return nodeCode(r[c])
}

// nodeKey appends a collision-free encoding of one bound value to buf:
// node ordinals are unique per store and contain no separator
// ambiguity, unlike the raw string signatures they replace.
func nodeKey(buf []byte, v any) []byte {
	switch n := v.(type) {
	case Tuple:
		buf = strconv.AppendInt(append(buf, 't'), int64(n.TupleOrd()), 10)
	case Deriv:
		buf = strconv.AppendInt(append(buf, 'd'), int64(n.DerivOrd()), 10)
	default:
		buf = append(buf, '?')
	}
	return append(buf, ',')
}

// RowKey encodes the given columns of a row as a string key: the
// fallback of the operators' integer keys (see keyer).
func RowKey(r Row, cols []int) string {
	buf := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		if c < 0 {
			buf = append(buf, '?', ',')
			continue
		}
		buf = nodeKey(buf, r[c])
	}
	return string(buf)
}
