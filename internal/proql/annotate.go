package proql

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/proql/physplan"
	"repro/internal/relstore"
	"repro/internal/semiring"
)

// annotatePath runs a query's EVALUATE clause on the path executor
// (Section 2.1) over the subgraph its plan projected, while the view v
// the plan ran on is still bound: the recorded handles are numbered
// densely per query, each tuple's incoming derivations are held as CSR
// offsets, and the annotations are computed bottom-up in Kahn order,
// or by monotone fixpoint when the projection is cyclic. No graph is
// linked and no tuple ref is encoded except for the returned tuples
// and, under a semiring whose leaf values name their tuple, the
// leaves. returned[i] is the TupleOrd of refs[i]; the annotations of
// those tuples are returned.
//
// The projected graph is the one linkProjection builds from the same
// recording: every returned and path-start tuple and every source and
// target of a recorded derivation. A tuple is a leaf when it has a
// local contribution in the view's snapshot or no incoming derivation
// in the projection.
func (e *Engine) annotatePath(q *Query, v *pathView, proj *physplan.Projection, refs []model.TupleRef, returned []int32) (semiring.Semiring, map[model.TupleRef]semiring.Value, error) {
	s, err := semiring.Lookup(q.Evaluate)
	if err != nil {
		return nil, nil, err
	}
	var mapFuncs map[string]semiring.MappingFunc
	if q.MapAssign != nil {
		var names []string
		for _, m := range e.Sys.Schema.Mappings() {
			names = append(names, m.Name)
		}
		if mapFuncs, err = buildMapFuncs(s, q.MapAssign, names); err != nil {
			return nil, nil, err
		}
	}
	a := &v.ann
	a.v, a.s, a.zero, a.one = v, s, s.Zero(), s.One()
	a.link(proj, returned, mapFuncs)
	if v.err != nil {
		return nil, nil, v.err
	}
	order, acyclic := a.order()
	if !acyclic && !s.CycleSafe() {
		return nil, nil, fmt.Errorf("proql: projected graph is cyclic and semiring %s cannot be evaluated by fixpoint (annotations may diverge)", s.Name())
	}
	a.vals = reuse(a.vals, len(a.tuples))
	if err := a.leaves(q.LeafAssign, a.vals); err != nil {
		return nil, nil, err
	}
	if acyclic {
		// A tuple's leaf value is read just before its annotation
		// replaces it.
		for _, t := range order {
			a.vals[t] = a.contribution(t, a.vals[t])
		}
	} else if err := a.fixpoint(); err != nil {
		return nil, nil, err
	}
	out := make(map[model.TupleRef]semiring.Value, len(refs))
	for i, n := range returned {
		out[refs[i]] = a.vals[a.tid[n]-1]
	}
	return s, out, nil
}

// recycle drops what a holds of its query, keeping its arrays for the
// next query on its view (spareViews).
func (a *annotation) recycle() {
	clear(a.vals)
	clear(a.base)
	clear(a.fn)
	clear(a.locals)
	a.v, a.s, a.zero, a.one = nil, nil, nil, nil
}

// held is the size in bytes of the arrays a keeps.
func (a *annotation) held() int {
	n := 16 * (cap(a.vals) + cap(a.base) + cap(a.locals))
	n += 8 * cap(a.fn)
	for _, s := range [][]int32{a.tid, a.tuples, a.srcOff, a.src, a.tgtOff, a.tgt, a.inOff, a.in,
		a.useOff, a.use, a.edges, a.fill, a.dwait, a.twait, a.queue} {
		n += 4 * cap(s)
	}
	return n
}

// annotation is one EVALUATE's projected graph over per-query ids:
// tuple ids in order of first sight, derivation ids in recording order.
type annotation struct {
	v         *pathView
	s         semiring.Semiring
	zero, one semiring.Value

	tid    []int32 // view handle number → 1 + tuple id; 0 off the projection
	tuples []int32 // tuple id → view handle number
	// Derivation d's sources are src[srcOff[d]:srcOff[d+1]] and its
	// targets tgt[tgtOff[d]:tgtOff[d+1]], tuple ids in atom order; fn[d]
	// is its mapping's function (fn empty: the identity for every d).
	srcOff, src []int32
	tgtOff, tgt []int32
	fn          []semiring.MappingFunc
	// Tuple t's incoming derivations are in[inOff[t]:inOff[t+1]], one
	// entry per target atom naming t; the derivations reading it
	// use[useOff[t]:useOff[t+1]], one per source atom.
	inOff, in   []int32
	useOff, use []int32
	// vals holds the annotations; base the leaf values while a cyclic
	// projection runs to its fixpoint.
	vals, base []semiring.Value
	// Scratch of link, group and order.
	edges, fill, dwait, twait, queue []int32
	// locals[ord] is the local-contribution table of the relation with
	// table ordinal ord, once seen; nil when it has none or it never
	// held a row.
	locals []struct {
		tab  *relstore.Table
		seen bool
	}
}

// tupleID returns the id of the tuple with view handle number n,
// numbering it on first sight.
func (a *annotation) tupleID(n int32) int32 {
	if int(n) >= len(a.tid) {
		// Resolving a derivation's atoms made the handle after link
		// sized tid: a head atom that no walk reached, say.
		old := len(a.tid)
		a.tid = slices.Grow(a.tid, int(n)+1-old)[:n+1]
		clear(a.tid[old:])
	}
	if a.tid[n] == 0 {
		a.tuples = append(a.tuples, n)
		a.tid[n] = int32(len(a.tuples))
	}
	return a.tid[n] - 1
}

// link numbers the projected tuples — the returned ones, the path
// starts, then the sources and targets of the recorded derivations —
// lists each derivation's sources and targets by tuple id, and groups
// each tuple's incoming derivations.
func (a *annotation) link(proj *physplan.Projection, returned []int32, mapFuncs map[string]semiring.MappingFunc) {
	v := a.v
	a.tid, a.tuples = reuse(a.tid, int(v.nodes.n)), a.tuples[:0]
	for _, n := range returned {
		a.tupleID(n)
	}
	for _, n := range proj.StartOrds {
		a.tupleID(n)
	}
	a.srcOff, a.src = append(a.srcOff[:0], 0), a.src[:0]
	a.tgtOff, a.tgt = append(a.tgtOff[:0], 0), a.tgt[:0]
	a.fn = a.fn[:0]
	for n := range proj.DerivOrds() {
		d := v.deriv(n)
		pr := d.rel.prov
		a.edges = v.appendEdges(a.edges[:0], d)
		for j, t := range a.edges {
			if j < len(pr.Sources) {
				a.src = append(a.src, a.tupleID(t))
			} else {
				a.tgt = append(a.tgt, a.tupleID(t))
			}
		}
		a.srcOff = append(a.srcOff, int32(len(a.src)))
		a.tgtOff = append(a.tgtOff, int32(len(a.tgt)))
		if mapFuncs != nil {
			a.fn = append(a.fn, mapFuncs[pr.Mapping.Name])
		}
	}
	a.inOff, a.in = a.group(a.tgtOff, a.tgt, a.inOff, a.in)
}

// group inverts per-derivation tuple lists — derivation d's are
// ids[off[d]:off[d+1]] — by a counting sort into outOff and out,
// reusing their arrays: tuple t's derivations are
// out[outOff[t]:outOff[t+1]], in derivation order, once per entry
// naming t.
func (a *annotation) group(off, ids, outOff, out []int32) ([]int32, []int32) {
	nt := len(a.tuples)
	outOff = reuse(outOff, nt+1)
	for _, t := range ids {
		outOff[t+1]++
	}
	for t := range nt {
		outOff[t+1] += outOff[t]
	}
	out = slices.Grow(out[:0], len(ids))[:len(ids)]
	a.fill = append(a.fill[:0], outOff[:nt]...)
	for d := range len(off) - 1 {
		for _, t := range ids[off[d]:off[d+1]] {
			out[a.fill[t]] = int32(d)
			a.fill[t]++
		}
	}
	return outOff, out
}

// order returns the tuples in Kahn order — a tuple once every
// derivation into it has all of its sources before it — and whether
// that reaches every tuple, that is whether the projection is acyclic.
func (a *annotation) order() ([]int32, bool) {
	nt, nd := len(a.tuples), len(a.srcOff)-1
	a.useOff, a.use = a.group(a.srcOff, a.src, a.useOff, a.use)
	// dwait[d] counts d's source atoms not yet ordered; twait[t] t's
	// incoming derivations (one per target atom naming t) with one.
	dwait := slices.Grow(a.dwait[:0], nd)[:nd]
	for d := range dwait {
		dwait[d] = a.srcOff[d+1] - a.srcOff[d]
	}
	twait, order := reuse(a.twait, nt), slices.Grow(a.queue[:0], nt)
	a.dwait, a.twait = dwait, twait
	for t := range nt {
		for _, d := range a.in[a.inOff[t]:a.inOff[t+1]] {
			if dwait[d] > 0 {
				twait[t]++
			}
		}
		if twait[t] == 0 {
			order = append(order, int32(t))
		}
	}
	for i := 0; i < len(order); i++ {
		t := order[i]
		for _, d := range a.use[a.useOff[t]:a.useOff[t+1]] {
			if dwait[d]--; dwait[d] != 0 {
				continue
			}
			for _, u := range a.tgt[a.tgtOff[d]:a.tgtOff[d+1]] {
				if twait[u]--; twait[u] == 0 {
					order = append(order, u)
				}
			}
		}
	}
	a.queue = order
	return order, len(order) == nt
}

// leaves writes each leaf's value under the ASSIGNING EACH leaf_node
// clause to base, leaving nil for the other tuples. A tuple with
// incoming derivations is a leaf only if its key is in its relation's
// local-contribution table in the view's snapshot; a tuple's stored
// row is read only when the clause reads an attribute, and its ref is
// encoded only when its value names it.
func (a *annotation) leaves(clause *AssignClause, base []semiring.Value) error {
	v, s := a.v, a.s
	constant := clause != nil && len(clause.Cases) == 0 && clause.Default != nil
	var cv semiring.Value // the constant, once converted
	named := tokenLeaf(s)
	for t, n := range a.tuples {
		tup := v.tuple(n)
		if a.inOff[t] < a.inOff[t+1] && !a.local(tup) {
			continue
		}
		if constant {
			if cv == nil {
				var err error
				if cv, err = convertAssignValue(s, clause.Default.Lit); err != nil {
					return err
				}
			}
			base[t] = cv
			continue
		}
		row := tup.TupleRow()
		var ref model.TupleRef
		if named || row == nil {
			ref = tup.TupleRef()
		}
		val, err := evalLeafAssign(s, clause, leafContextForRow(tup.rel.rel, row, ref))
		if err != nil {
			return err
		}
		base[t] = val
	}
	return nil
}

// local reports whether t has a local contribution: its key is in its
// relation's local-contribution table (exchange.System.IsLeafRef).
func (a *annotation) local(t *pathTuple) bool {
	v, rel := a.v, t.rel.rel
	ord := t.rel.ord
	if ord >= len(a.locals) {
		a.locals = slices.Grow(a.locals, ord+1-len(a.locals))[:ord+1]
	}
	l := &a.locals[ord]
	if !l.seen {
		if tab, ok := v.sys.DB.Table(rel.LocalName()); ok && tab.Slots() > 0 {
			l.tab = tab
		}
		l.seen = true
	}
	if l.tab == nil {
		return false
	}
	if row := t.TupleRow(); row != nil {
		v.enc = v.enc[:0]
		for _, c := range rel.Key {
			v.enc = model.AppendDatum(v.enc, row[c])
		}
	} else {
		v.enc = append(v.enc[:0], t.rel.key...)
	}
	_, _, ok := l.tab.LookupKeySlot(v.enc)
	return ok
}

// contribution computes tuple t's annotation from its leaf value base
// (nil unless t is a leaf) and the current values of its derivations'
// sources: base ⊕ per derivation f_m(⊗ of the source annotations).
func (a *annotation) contribution(t int32, base semiring.Value) semiring.Value {
	s := a.s
	acc := a.zero
	if base != nil {
		acc = s.Plus(acc, base)
	}
	for _, d := range a.in[a.inOff[t]:a.inOff[t+1]] {
		prod := a.one
		for _, src := range a.src[a.srcOff[d]:a.srcOff[d+1]] {
			prod = s.Times(prod, a.vals[src])
		}
		if len(a.fn) != 0 && a.fn[d] != nil {
			prod = a.fn[d](prod)
		}
		acc = s.Plus(acc, prod)
	}
	return acc
}

// fixpoint evaluates a cyclic projection for a cycle-safe semiring
// (Section 2.1 "Cycles"): from Zero everywhere, every tuple accumulates
// its contribution (x ⊕ next, which keeps the iteration monotone) until
// a round changes nothing, within 2·(#tuples+#derivations)+2 rounds.
// It starts with the leaf values in vals and moves them to base.
func (a *annotation) fixpoint() error {
	s := a.s
	rounds := 2*(len(a.tuples)+len(a.srcOff)-1) + 2
	base := a.vals
	a.vals, a.base = reuse(a.base, len(base)), base
	for t := range a.vals {
		a.vals[t] = a.zero
	}
	for range rounds {
		changed := false
		for t := range a.vals {
			next := s.Plus(a.vals[t], a.contribution(int32(t), base[t]))
			if !s.Eq(next, a.vals[t]) {
				a.vals[t] = next
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("proql: fixpoint did not converge within %d iterations", rounds)
}
