package proql

import (
	"cmp"
	"slices"

	"repro/internal/model"
)

// resultRows is a query's answer in compact form, the one shape every
// executor emits: the distinct tuples the RETURN variables bind, sorted
// by (Rel, Key), and per answer row one cell per variable indexing
// them, row-major, rows sorted by their cells — which is (Rel, Key)
// order variable by variable. Result.Bindings is materialized from it
// only when asked for (Exec); SortedRefs reads it directly.
type resultRows struct {
	vars  []string
	refs  []model.TupleRef
	cells []int32
	n     int // rows
	// A one-row, one-variable answer (a point query) lives here.
	ref1  [1]model.TupleRef
	cell1 [1]int32
}

// addRef registers a returned tuple — each distinct tuple once — and
// returns the cell value that refers to it.
func (rs *resultRows) addRef(ref model.TupleRef) int32 {
	if rs.refs == nil {
		rs.refs = rs.ref1[:0]
	}
	rs.refs = append(rs.refs, ref)
	return int32(len(rs.refs) - 1)
}

// addRow appends one answer row, one cell per variable; each distinct
// row once.
func (rs *resultRows) addRow(cells ...int32) {
	if rs.cells == nil {
		rs.cells = rs.cell1[:0]
	}
	rs.cells = append(rs.cells, cells...)
	rs.n++
}

// sort puts the refs in (Rel, Key) order, renumbering the cells, and
// then the rows in cell order.
func (rs *resultRows) sort() {
	if len(rs.refs) > 1 {
		order := make([]int32, len(rs.refs))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return compareRefs(rs.refs[a], rs.refs[b]) })
		rank := make([]int32, len(order))
		refs := make([]model.TupleRef, len(order))
		for r, i := range order {
			rank[i] = int32(r)
			refs[r] = rs.refs[i]
		}
		rs.refs = refs
		for i, c := range rs.cells {
			rs.cells[i] = rank[c]
		}
	}
	// Two columns (the common-provenance pair) sort as packed uint64s,
	// about 14 % of the whole query on instance M faster than the
	// generic path (EXPERIMENTS E21).
	switch {
	case rs.n < 2:
	case len(rs.vars) == 2:
		keys := make([]uint64, rs.n)
		for i := range keys {
			keys[i] = uint64(rs.cells[2*i])<<32 | uint64(rs.cells[2*i+1])
		}
		slices.Sort(keys)
		for i, k := range keys {
			rs.cells[2*i], rs.cells[2*i+1] = int32(k>>32), int32(uint32(k))
		}
	default:
		order := make([]int, rs.n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return slices.Compare(rs.row(a), rs.row(b)) })
		cells := make([]int32, 0, len(rs.cells))
		for _, i := range order {
			cells = append(cells, rs.row(i)...)
		}
		rs.cells = cells
	}
}

func (rs *resultRows) row(i int) []int32 {
	w := len(rs.vars)
	return rs.cells[i*w : i*w+w]
}

func compareRefs(a, b model.TupleRef) int {
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// bindings materializes one Binding map per row, in row order.
func (rs *resultRows) bindings() []Binding {
	if rs.n == 0 {
		return nil
	}
	out := make([]Binding, rs.n)
	for i := range out {
		b := make(Binding, len(rs.vars))
		for j, c := range rs.row(i) {
			b[rs.vars[j]] = rs.refs[c]
		}
		out[i] = b
	}
	return out
}

// sortedRefs is the distinct refs variable v binds, in (Rel, Key)
// order: one pass over v's cells marking refs, then the marked refs in
// index order.
func (rs *resultRows) sortedRefs(v string) []model.TupleRef {
	col := slices.Index(rs.vars, v)
	if col < 0 || rs.n == 0 {
		return nil
	}
	if len(rs.vars) == 1 {
		return slices.Clone(rs.refs) // refs are registered only by rows
	}
	marked := make([]bool, len(rs.refs))
	for i := 0; i < rs.n; i++ {
		marked[rs.row(i)[col]] = true
	}
	var out []model.TupleRef
	for i, ref := range rs.refs {
		if marked[i] {
			out = append(out, ref)
		}
	}
	return out
}
