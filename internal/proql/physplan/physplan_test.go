package physplan

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/provgraph"
)

func ref(rel string, k int) model.TupleRef {
	return model.RefFromKey(rel, []model.Datum{int64(k)})
}

// diamondGraph builds a graph of n diamonds: O(i) derived from B(i)
// and C(i) by mapping mo, each of those derived from A(i) by ma. One
// extra mapping mx derives O(0) directly from A(0).
func diamondGraph(n int) *provgraph.Graph {
	g := provgraph.New()
	for i := 0; i < n; i++ {
		g.AddDerivation(fmt.Sprintf("mo#%d", i), "mo",
			[]model.TupleRef{ref("B", i), ref("C", i)}, []model.TupleRef{ref("O", i)})
		g.AddDerivation(fmt.Sprintf("maB#%d", i), "ma",
			[]model.TupleRef{ref("A", i)}, []model.TupleRef{ref("B", i)})
		g.AddDerivation(fmt.Sprintf("maC#%d", i), "ma",
			[]model.TupleRef{ref("A", i)}, []model.TupleRef{ref("C", i)})
	}
	g.AddDerivation("mx#0", "mx", []model.TupleRef{ref("A", 0)}, []model.TupleRef{ref("O", 0)})
	return g
}

// mustRows runs plan to its answer, one row per answer row binding the
// RETURN variables in order.
func mustRows(t *testing.T, plan *Plan) []Row {
	t.Helper()
	a, err := plan.Answer()
	if err != nil {
		t.Fatal(err)
	}
	w := len(a.tables)
	rows := make([]Row, a.Rows)
	for i := range rows {
		rows[i] = make(Row, w)
		for j, cell := range a.Cells[i*w : (i+1)*w] {
			rows[i][j] = a.Table(j)[cell]
		}
	}
	return rows
}

// rowStrings renders projected rows for order-insensitive comparison.
func rowStrings(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			switch n := v.(type) {
			case *provgraph.TupleNode:
				s += n.Ref.String() + ";"
			case *provgraph.DerivNode:
				s += n.ID + ";"
			default:
				s += "?;"
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func compilePlan(t *testing.T, g *provgraph.Graph, spec Spec) *Plan {
	t.Helper()
	plan, err := Compile(NewMem(g), spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestScanSinglePath(t *testing.T) {
	g := diamondGraph(3)
	// [O $x] <- [B $y]: one match per diamond.
	p := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p}, Return: []string{"x", "y"}})
	rows := mustRows(t, plan)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestScanMappingIndexStart(t *testing.T) {
	g := diamondGraph(4)
	// [$x] <mx [$y]: only O(0) qualifies; the scan should seed from the
	// mapping index, not the whole graph.
	p := Path{
		Nodes: []Node{{Var: "x"}, {Var: "y"}},
		Edges: []Edge{{Kind: EdgeDirect, Mapping: "mx"}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p}, Return: []string{"x", "y"}})
	if want := "start=index:mapping(mx)"; !contains(plan.ExplainString(), want) {
		t.Errorf("plan should use the mapping index:\n%s", plan.ExplainString())
	}
	rows := mustRows(t, plan)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if got := rows[0][0].(*provgraph.TupleNode).Ref; got != ref("O", 0) {
		t.Errorf("x = %v", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestHashJoinOnSharedVar(t *testing.T) {
	g := diamondGraph(3)
	// Common ancestor: [O $x] <-+ [A $z], [C $y] <-+ [A $z]. Each O(i)
	// and C(i) share A(i); plus O(0) reaches A(0) via mx too (same
	// ancestor set).
	p1 := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "A", Var: "z"}},
		Edges: []Edge{{Kind: EdgePlus}},
	}
	p2 := Path{
		Nodes: []Node{{Rel: "C", Var: "y"}, {Rel: "A", Var: "z"}},
		Edges: []Edge{{Kind: EdgePlus}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p1, p2}, Return: []string{"x", "y", "z"}})
	rows := mustRows(t, plan)
	// Every (O(i), C(i), A(i)) triple.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(rows), rowStrings(rows))
	}
	for _, r := range rows {
		x := r[0].(*provgraph.TupleNode).Ref
		y := r[1].(*provgraph.TupleNode).Ref
		z := r[2].(*provgraph.TupleNode).Ref
		if x.Key != z.Key || y.Key != z.Key {
			t.Errorf("mismatched diamond: %v %v %v", x, y, z)
		}
	}
}

func TestExtendWhenStartBound(t *testing.T) {
	g := diamondGraph(3)
	// Second path starts at the already-bound $y: planner must pick
	// Extend, not a hash join.
	p1 := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	p2 := Path{
		Nodes: []Node{{Var: "y"}, {Rel: "A", Var: "z"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p1, p2}, Return: []string{"x", "z"}})
	if !contains(plan.ExplainString(), "Extend(") {
		t.Fatalf("expected an Extend operator:\n%s", plan.ExplainString())
	}
	rows := mustRows(t, plan)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestFilterPushdown(t *testing.T) {
	g := diamondGraph(3)
	p1 := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	p2 := Path{
		Nodes: []Node{{Var: "y"}, {Rel: "A", Var: "z"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	keep := ref("O", 1)
	calls := 0
	filter := FilterSpec{
		Desc: testDesc("x = O(1)"),
		Vars: []string{"x"},
		Fn: func(s *Schema, r Row) (bool, error) {
			calls++
			tn := r[s.Col("x")].(*provgraph.TupleNode)
			return tn.Ref == keep, nil
		},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p1, p2}, Filters: []FilterSpec{filter}, Return: []string{"x", "z"}})
	rows := mustRows(t, plan)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	// Pushdown: a lenient pruning copy must sit below Extend (closer to
	// the scan), with the authoritative filter at the top of the
	// pipeline.
	ex := plan.ExplainString()
	if idxPrune, idxExtend := indexOf(ex, "Filter(prune:"), indexOf(ex, "Extend("); idxPrune < 0 || idxExtend < 0 || idxPrune < idxExtend {
		t.Errorf("pruning filter should sit below Extend:\n%s", ex)
	}
	if idxStrict, idxExtend := indexOf(ex, "Filter(x"), indexOf(ex, "Extend("); idxStrict < 0 || idxStrict > idxExtend {
		t.Errorf("authoritative filter should sit above the join:\n%s", ex)
	}
}

func TestDedupDistinctNodesNoCollision(t *testing.T) {
	g := provgraph.New()
	// Derivation IDs crafted so naive string concatenation of (p, q)
	// collides: ("m\x001", "x") vs ("m", "1\x00x").
	d1 := g.AddDerivation("m\x001", "m1", nil, []model.TupleRef{ref("O", 1)})
	d2 := g.AddDerivation("x", "m1", nil, []model.TupleRef{ref("O", 2)})
	d3 := g.AddDerivation("m", "m1", nil, []model.TupleRef{ref("O", 3)})
	d4 := g.AddDerivation("1\x00x", "m1", nil, []model.TupleRef{ref("O", 4)})
	k1 := RowKey(Row{d1, d2}, []int{0, 1})
	k2 := RowKey(Row{d3, d4}, []int{0, 1})
	if k1 == k2 {
		t.Fatalf("distinct derivation pairs must not collide: %q", k1)
	}
	// Unbound vs bound must differ too.
	if RowKey(Row{d1, nil}, []int{0, 1}) == RowKey(Row{d1, d2}, []int{0, 1}) {
		t.Fatal("unbound column must produce a distinct key")
	}
}

// ordTuple and ordDeriv are handles with chosen ordinals.
type ordTuple int

func (o ordTuple) TupleRef() model.TupleRef { return ref("T", int(o)) }
func (o ordTuple) TupleRel() string         { return "T" }
func (o ordTuple) TupleOrd() int            { return int(o) }
func (o ordTuple) TupleRow() model.Tuple    { return nil }

type ordDeriv int

func (o ordDeriv) DerivOrd() int         { return int(o) }
func (o ordDeriv) DerivMapping() string  { return "m" }
func (o ordDeriv) DerivRow() model.Tuple { return nil }

// TestKeyerKeys: integer keys tell tuples from derivations of the same
// ordinal, bound from unbound and column order apart; keys over more
// than two columns or oversize ordinals take the string fallback, whose
// ids never meet an integer key.
func TestKeyerKeys(t *testing.T) {
	const big = 1 << 40
	rows := []Row{
		{ordTuple(5), nil, nil}, {ordDeriv(5), nil, nil}, {nil, nil, nil}, {ordTuple(0), nil, nil},
		{ordTuple(1), ordTuple(2), nil}, {ordTuple(2), ordTuple(1), nil},
		{ordTuple(big), ordTuple(1), nil}, {ordTuple(1), ordTuple(big), nil},
		{ordTuple(1), ordTuple(2), ordTuple(3)}, {ordTuple(1), ordTuple(2), ordDeriv(3)},
		{ordTuple(big), nil, nil},
	}
	cols := [][]int{{0}, {0}, {0}, {0}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {0}}
	var k keyer
	seen := map[uint64]int{}
	for i, r := range rows {
		key := k.key(r, cols[i])
		if j, dup := seen[key]; dup {
			t.Errorf("rows %d and %d share key %#x", j, i, key)
		}
		seen[key] = i
		wide := key>>63 == 1
		if want := len(cols[i]) > 2 || (len(cols[i]) == 2 && (r[0] == ordTuple(big) || r[1] == ordTuple(big))); wide != want {
			t.Errorf("row %d: string fallback = %v, want %v", i, wide, want)
		}
		if again := k.key(r, cols[i]); again != key {
			t.Errorf("row %d: key %#x, then %#x", i, key, again)
		}
	}
}

// TestAnswerTables: a root other than the distinct join numbers each
// RETURN column's values in a table of its own — by a map once a
// column holds more than a few, so a value that repeats keeps its cell
// — and a variable no path binds reads nil.
func TestAnswerTables(t *testing.T) {
	const n = 20
	plan := compilePlan(t, diamondGraph(n), Spec{
		Paths:  []Path{{Nodes: []Node{{Rel: "O", Var: "x"}, {Var: "y"}}, Edges: []Edge{{Kind: EdgeDirect}}}},
		Return: []string{"y", "x", "w"},
	})
	a, err := plan.Answer()
	if err != nil {
		t.Fatal(err)
	}
	// O(i) <- B(i), O(i) <- C(i), and O(0) <- A(0).
	if a.Rows != 2*n+1 {
		t.Fatalf("answer has %d rows, want %d", a.Rows, 2*n+1)
	}
	for j, want := range []int{2*n + 1, n, 1} {
		if got := len(a.Table(j)); got != want {
			t.Errorf("column %d's table holds %d values, want %d", j, got, want)
		}
	}
	want := []string{ref("A", 0).String() + ";" + ref("O", 0).String() + ";?;"}
	for i := 0; i < n; i++ {
		for _, rel := range []string{"B", "C"} {
			want = append(want, ref(rel, i).String()+";"+ref("O", i).String()+";?;")
		}
	}
	sort.Strings(want)
	if got := rowStrings(mustRows(t, plan)); !slices.Equal(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

// TestScanCancelSurfaces: a scan whose Cancel starts failing after k
// start tuples must end with that error, never as a complete
// (truncated) result. The scan polls before every start tuple, also on
// the path that matches nothing, where no row reaches the consumer
// between polls. The plan's answer ends with the same error.
func TestScanCancelSurfaces(t *testing.T) {
	const k = 5
	errStop := fmt.Errorf("cancelled")
	for _, tc := range []struct {
		name     string
		path     Path
		wantRows int
	}{
		{"matches", Path{Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}}, Edges: []Edge{{Kind: EdgeDirect}}}, k},
		{"nothing", Path{Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "Q"}}, Edges: []Edge{{Kind: EdgeDirect}}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			polls := 0
			plan := compilePlan(t, diamondGraph(200), Spec{Paths: []Path{tc.path}, Return: []string{"x"},
				Cancel: func() error {
					if polls++; polls > k {
						return errStop
					}
					return nil
				}})
			rows := 0
			err := plan.Root.input.each(func(Row) bool {
				rows++
				return true
			})
			if err == nil {
				t.Fatalf("cancelled scan ended as a complete result after %d rows", rows)
			}
			if err != errStop {
				t.Fatalf("scan ended with %v, want %v", err, errStop)
			}
			if rows != tc.wantRows {
				t.Errorf("scan returned %d rows before the cancel, want %d", rows, tc.wantRows)
			}
			polls = 0
			if a, err := plan.Answer(); err != errStop || a.Rows != 0 {
				t.Errorf("answer = %d rows, %v; want none and %v", a.Rows, err, errStop)
			}
		})
	}
}

// TestDistinctJoinCancel: a multi-path query whose Cancel starts
// failing during the build-side drain, the probe-side drain or the pair
// emission returns that error and no answer, polls no more, and makes
// no graph call after the poll that saw it.
func TestDistinctJoinCancel(t *testing.T) {
	const n = 50 // diamonds: n start tuples per side, n answer groups
	g := &countingGraph{Mem: NewMem(diamondGraph(n))}
	spec := Spec{
		Paths: []Path{
			{Nodes: []Node{{Rel: "O", Var: "x"}, {Var: "z"}}, Edges: []Edge{{Kind: EdgePlus}}},
			{Nodes: []Node{{Rel: "C", Var: "y"}, {Var: "z"}}, Edges: []Edge{{Kind: EdgePlus}}},
		},
		Return: []string{"x", "y"},
	}
	polls := 0
	spec.Cancel = func() error { polls++; return nil }
	plan, err := Compile(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.ExplainString(); !contains(ex, "DistinctJoin(on $z; distinct $x, $y)") {
		t.Fatalf("join not fused:\n%s", ex)
	}
	a, err := plan.Answer()
	if err != nil || a.Rows != n {
		t.Fatalf("uncancelled answer: %d rows, %v; want %d", a.Rows, err, n)
	}
	// One poll per build-side start, per probe-side start, per group.
	if polls != 3*n {
		t.Fatalf("uncancelled answer polled %d times, want %d", polls, 3*n)
	}
	stop := errors.New("stop")
	for _, tc := range []struct {
		phase string
		poll  int
	}{{"build drain", n / 2}, {"probe drain", n + n/2}, {"pair emission", 2*n + n/2}} {
		t.Run(tc.phase, func(t *testing.T) {
			polls, callsAtStop := 0, -1
			spec.Cancel = func() error {
				polls++
				switch {
				case polls == tc.poll:
					callsAtStop = g.calls()
					return stop
				case polls > tc.poll:
					t.Errorf("poll %d after the cancel fired", polls)
					return stop
				}
				return nil
			}
			plan, err := Compile(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			a, err := plan.Answer()
			if !errors.Is(err, stop) {
				t.Fatalf("answer ended with %v, want %v", err, stop)
			}
			if a.Rows != 0 || a.Cells != nil {
				t.Errorf("cancelled answer kept %d rows", a.Rows)
			}
			if calls := g.calls(); calls != callsAtStop {
				t.Errorf("%d graph calls after the cancel fired", calls-callsAtStop)
			}
		})
	}
}

// diamondLadder builds levels diamonds stacked on each other: L(i) is
// derived from B(i) and from C(i), each of which is derived from
// L(i+1), so 2^levels simple paths lead from L(0) to L(levels).
func diamondLadder(levels int) *provgraph.Graph {
	g := provgraph.New()
	for i := 0; i < levels; i++ {
		for _, mid := range []string{"B", "C"} {
			g.AddDerivation(fmt.Sprintf("up%s#%d", mid, i), "up",
				[]model.TupleRef{ref("L", i+1)}, []model.TupleRef{ref(mid, i)})
			g.AddDerivation(fmt.Sprintf("down%s#%d", mid, i), "down",
				[]model.TupleRef{ref(mid, i)}, []model.TupleRef{ref("L", i)})
		}
	}
	return g
}

// TestPlusWalkLinearOnDiamonds: the <-+ walk from the bottom of a
// 16-diamond ladder enters each ancestor once — at most 4 incoming-edge
// enumerations per node, where walking every simple path makes about
// 2^18 for its 49 nodes — and reaches each of them once.
func TestPlusWalkLinearOnDiamonds(t *testing.T) {
	const levels = 16
	mem := diamondLadder(levels)
	g := &countingGraph{Mem: NewMem(mem)}
	p := Path{
		Nodes:    []Node{{Rel: "L", Var: "x"}, {Var: "z"}},
		Edges:    []Edge{{Kind: EdgePlus}},
		StartKey: []model.Datum{int64(0)},
	}
	plan, err := Compile(g, Spec{Paths: []Path{p}, Return: []string{"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, plan)
	if want := mem.NumTuples() - 1; len(rows) != want {
		t.Errorf("%d ancestors reached, want %d", len(rows), want)
	}
	if bound := 4 * mem.NumTuples(); g.into > bound {
		t.Errorf("%d EachDerivInto calls for %d nodes, bound %d", g.into, mem.NumTuples(), bound)
	}
}

// simplePathOrder is the reference <-+ semantics: every tuple a simple
// path from start reaches — one avoiding blocked and never revisiting a
// node — in the order the enumeration of those paths first reaches it.
func simplePathOrder(start *provgraph.TupleNode, blocked map[Tuple]bool) []Tuple {
	onPath := map[Tuple]bool{start: true}
	for t := range blocked {
		onPath[t] = true
	}
	seen := map[Tuple]bool{}
	var out []Tuple
	var walk func(t *provgraph.TupleNode)
	walk = func(t *provgraph.TupleNode) {
		for _, d := range t.Derivations {
			for _, src := range d.Sources {
				if onPath[src] {
					continue
				}
				if !seen[src] {
					seen[src] = true
					out = append(out, src)
				}
				onPath[src] = true
				walk(src)
				delete(onPath, src)
			}
		}
	}
	walk(start)
	return out
}

// TestPlusWalkOrderMatchesSimplePaths: on random cyclic graphs, from
// every start and with a random set of nodes already on the match, the
// walk reaches exactly what simplePathOrder reaches, in the same order.
func TestPlusWalkOrderMatchesSimplePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := Path{Nodes: []Node{{Var: "x"}, {Var: "z"}}, Edges: []Edge{{Kind: EdgePlus}}}
	schema := NewSchema(p.Vars())
	bp := bindPath(p, schema)
	checked := 0
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(6)
		g := provgraph.New()
		for d := 0; d < n+rng.Intn(2*n); d++ {
			srcs := []model.TupleRef{ref("T", rng.Intn(n))}
			if s2 := ref("T", rng.Intn(n)); rng.Intn(3) == 0 && s2 != srcs[0] {
				srcs = append(srcs, s2)
			}
			g.AddDerivation(fmt.Sprintf("d%d", d), "m", srcs, []model.TupleRef{ref("T", rng.Intn(n))})
		}
		m := bp.newMatcher(NewMem(g))
		for _, st := range g.Tuples() {
			blocked := map[Tuple]bool{}
			for _, other := range g.Tuples() {
				if other != st && rng.Intn(4) == 0 {
					blocked[other] = true
				}
			}
			want := simplePathOrder(st, blocked)
			for b := range blocked {
				m.visited[b] = true
			}
			var got []Tuple
			m.matchStart(st, make(Row, schema.Width()), func(r Row) bool {
				got = append(got, r[schema.Col("z")].(Tuple))
				return true
			})
			clear(m.visited)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, start %v, blocked %d nodes: walk reached %v, simple paths %v",
					trial, st.Ref, len(blocked), tupleRefs(got), tupleRefs(want))
			}
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("no ancestor reached in any trial; the comparison is vacuous")
	}
}

func tupleRefs(ts []Tuple) []model.TupleRef {
	out := make([]model.TupleRef, len(ts))
	for i, t := range ts {
		out[i] = t.TupleRef()
	}
	return out
}

func TestExistsChecker(t *testing.T) {
	g := diamondGraph(2)
	base := NewSchema([]string{"x"})
	// [$x] <- [B]: true for O tuples (derived from B), false for A.
	check := NewExistsChecker(NewMem(g), Path{
		Nodes: []Node{{Var: "x"}, {Rel: "B"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}, base)
	o0, _ := g.Lookup(ref("O", 0))
	a0, _ := g.Lookup(ref("A", 0))
	if got, err := check(Row{o0}); err != nil || !got {
		t.Errorf("O(0) <- [B] = %v, %v; want true", got, err)
	}
	if got, err := check(Row{a0}); err != nil || got {
		t.Errorf("A(0) <- [B] = %v, %v; want false", got, err)
	}
}

func TestGreedyOrderPrefersSelectiveStart(t *testing.T) {
	g := diamondGraph(10)
	// Path over all tuples vs path over the single mx derivation: the
	// mx path must come first, and the other path joins on $x.
	broad := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}, {Var: "z"}},
		Edges: []Edge{{Kind: EdgePlus}},
	}
	narrow := Path{
		Nodes: []Node{{Var: "x"}, {Rel: "A", Var: "w"}},
		Edges: []Edge{{Kind: EdgeDirect, Mapping: "mx"}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{broad, narrow}, Return: []string{"x", "z", "w"}})
	if len(plan.Order) != 2 || plan.Order[0] != 1 {
		t.Fatalf("order = %v, want the narrow mapping-indexed path first\n%s", plan.Order, plan.ExplainString())
	}
	rows := mustRows(t, plan)
	// O(0)'s ancestors: B(0), C(0), A(0) → 3 z bindings with w=A(0).
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(rows), rowStrings(rows))
	}
}

// TestGreedyOrderSyntaxRank pins the join order read from the query
// syntax alone: a start bound by an earlier path beats a key-pinned
// one, which beats one named by a relation or a first-edge mapping,
// which beats an unconstrained one; within a class fewer <-+ edges go
// first; ties keep query order; and a connected path beats a
// disconnected one whatever their ranks.
func TestGreedyOrderSyntaxRank(t *testing.T) {
	node := func(rel, v string) Node { return Node{Rel: rel, Var: v} }
	step := func(from, to Node) Path { return Path{Nodes: []Node{from, to}, Edges: []Edge{{Kind: EdgeDirect}}} }
	plus := func(from, to Node) Path { return Path{Nodes: []Node{from, to}, Edges: []Edge{{Kind: EdgePlus}}} }
	pinned := func(p Path) Path { p.StartKey = []model.Datum{int64(7)}; return p }
	for _, tc := range []struct {
		name  string
		paths []Path
		want  []int
	}{
		{"bound start beats key-pinned", []Path{
			pinned(Path{Nodes: []Node{node("O", "x")}}),
			pinned(step(node("B", "w"), node("", "x"))),
			plus(node("", "x"), node("", "z")),
		}, []int{0, 2, 1}},
		{"bound derivation beats key-pinned", []Path{
			pinned(Path{Nodes: []Node{node("O", "x"), node("", "z")}, Edges: []Edge{{Kind: EdgeDirect, Var: "d"}}}),
			pinned(step(node("B", "w"), node("", "x"))),
			{Nodes: []Node{node("", "y"), node("", "v")}, Edges: []Edge{{Kind: EdgeDirect, Var: "d"}}},
		}, []int{0, 2, 1}},
		{"key-pinned beats relation", []Path{
			step(node("O", "x"), node("", "z")),
			pinned(plus(node("B", "y"), node("", "z"))),
		}, []int{1, 0}},
		{"relation beats unconstrained", []Path{
			step(node("", "x"), node("", "z")),
			plus(node("O", "y"), node("", "z")),
		}, []int{1, 0}},
		{"first-edge mapping beats unconstrained", []Path{
			step(node("", "x"), node("", "z")),
			{Nodes: []Node{node("", "y"), node("", "z")}, Edges: []Edge{{Kind: EdgeDirect, Mapping: "mx"}}},
		}, []int{1, 0}},
		{"fewer <-+ edges within a class", []Path{
			plus(node("O", "x"), node("", "z")),
			step(node("B", "y"), node("", "z")),
		}, []int{1, 0}},
		{"ties keep query order", []Path{
			plus(node("C", "y"), node("", "z")),
			plus(node("O", "x"), node("", "z")),
		}, []int{0, 1}},
		{"connected beats disconnected", []Path{
			pinned(Path{Nodes: []Node{node("O", "x")}}),
			pinned(Path{Nodes: []Node{node("B", "y")}}),
			plus(node("C", "w"), node("", "x")),
		}, []int{0, 2, 1}},
	} {
		if got := greedyOrder(tc.paths); !slices.Equal(got, tc.want) {
			t.Errorf("%s: order = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIncludeProjectsSubgraph(t *testing.T) {
	g := diamondGraph(3)
	out := &Projection{}
	p := Path{
		Nodes: []Node{{Rel: "O", Var: "x"}},
	}
	inc := Path{
		Nodes: []Node{{Var: "x"}, {}},
		Edges: []Edge{{Kind: EdgePlus}},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p}, Include: []Path{inc}, Return: []string{"x"}, Out: out})
	rows := mustRows(t, plan)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// All 10 derivations are ancestors of some O tuple, each recorded
	// once; so is each of the 3 start tuples.
	if out.NumDerivs() != 10 || len(out.Starts) != 3 {
		t.Errorf("recorded %d derivations and %d starts, want 10 and 3", out.NumDerivs(), len(out.Starts))
	}
}

func TestLenientFilterDefersErrors(t *testing.T) {
	g := diamondGraph(2)
	schema := NewSchema([]string{"x"})
	scan := &Scan{
		g:      NewMem(g),
		bp:     bindPath(Path{Nodes: []Node{{Rel: "O", Var: "x"}}}, schema),
		schema: schema,
	}
	boom := func(s *Schema, r Row) (bool, error) {
		return false, fmt.Errorf("no stored row")
	}
	// The lenient pruning copy passes erroring rows through: later
	// joins may prune them, and the authoritative filter decides.
	lenient := &Filter{input: scan, desc: testDesc("boom"), fn: boom, lenient: true}
	rows := 0
	if err := lenient.each(func(Row) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("lenient filter should pass erroring rows through, got %d", rows)
	}
	// The authoritative copy surfaces the error, yielding no row.
	strict := &Filter{input: scan, desc: testDesc("boom"), fn: boom}
	rows = 0
	if err := strict.each(func(Row) bool { rows++; return true }); err == nil || rows != 0 {
		t.Fatalf("strict filter must surface evaluation errors: %d rows, err %v", rows, err)
	}
}

// countingGraph counts the graph calls a plan makes, by kind.
type countingGraph struct {
	Mem
	byKey, byRel, all, into, sources int
}

// calls is the number of graph calls made so far.
func (c *countingGraph) calls() int { return c.byKey + c.byRel + c.all + c.into + c.sources }

func (c *countingGraph) EachDerivInto(t Tuple, mapping string, yield func(Deriv) bool) {
	c.into++
	c.Mem.EachDerivInto(t, mapping, yield)
}

func (c *countingGraph) EachSource(d Deriv, yield func(Tuple) bool) {
	c.sources++
	c.Mem.EachSource(d, yield)
}

func (c *countingGraph) TupleByKey(rel string, key []model.Datum) (Tuple, bool) {
	c.byKey++
	return c.Mem.TupleByKey(rel, key)
}

func (c *countingGraph) EachTupleOf(rel string, yield func(Tuple) bool) {
	c.byRel++
	c.Mem.EachTupleOf(rel, yield)
}

func (c *countingGraph) EachTuple(yield func(Tuple) bool) {
	c.all++
	c.Mem.EachTuple(yield)
}

// TestScanKeyPinnedStart: a path whose StartKey is set starts from one
// point lookup and never enumerates the relation; its cost of one start
// puts it first in a join; an absent key matches nothing.
func TestScanKeyPinnedStart(t *testing.T) {
	g := &countingGraph{Mem: NewMem(diamondGraph(50))}
	pinned := Path{
		Nodes:    []Node{{Rel: "O", Var: "x"}, {Var: "z"}},
		Edges:    []Edge{{Kind: EdgePlus}},
		StartKey: []model.Datum{int64(7)},
	}
	plan, err := Compile(g, Spec{Paths: []Path{pinned}, Return: []string{"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "start=key:O(7)"; !contains(plan.ExplainString(), want) {
		t.Errorf("plan should start from the key:\n%s", plan.ExplainString())
	}
	// O(7)'s ancestors: B(7), C(7), A(7).
	if rows := mustRows(t, plan); len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(rows), rowStrings(rows))
	}
	if g.byKey != 1 || g.byRel != 0 || g.all != 0 {
		t.Errorf("start enumeration: %d key lookups, %d relation scans, %d full scans; want 1, 0, 0", g.byKey, g.byRel, g.all)
	}

	// Written second, the pinned path still runs first and the other
	// path joins it on $z.
	other := Path{
		Nodes: []Node{{Rel: "B", Var: "y"}, {Var: "z"}},
		Edges: []Edge{{Kind: EdgeDirect}},
	}
	plan, err = Compile(g, Spec{Paths: []Path{other, pinned}, Return: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) != 2 || plan.Order[0] != 1 {
		t.Fatalf("order = %v, want the key-pinned path first\n%s", plan.Order, plan.ExplainString())
	}
	if rows := mustRows(t, plan); len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (O(7), B(7) share A(7)): %v", len(rows), rowStrings(rows))
	}

	pinned.StartKey = []model.Datum{int64(50)}
	plan, err = Compile(g, Spec{Paths: []Path{pinned}, Return: []string{"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if rows := mustRows(t, plan); len(rows) != 0 {
		t.Fatalf("absent key: rows = %v, want none", rowStrings(rows))
	}
}

// countingFilter passes every row of in, counting them.
func countingFilter(in Op, n *int) *Filter {
	return &Filter{input: in, desc: testDesc("count"), fn: func(*Schema, Row) (bool, error) { *n++; return true, nil }}
}

// failingFilter passes the first n rows of in and fails on the next.
func failingFilter(in Op, n int) *Filter {
	seen := 0
	return &Filter{input: in, desc: testDesc("fail"), fn: func(*Schema, Row) (bool, error) {
		if seen++; seen > n {
			return false, errBoom
		}
		return true, nil
	}}
}

var errBoom = errors.New("boom")

// eachOps builds one of every operator over in, on diamondGraph's
// schema (x, y): each row of in binds $x to an O tuple.
func eachOps(g Graph, schema *Schema) map[string]func(in Op) Op {
	scan := func(p Path) *Scan { return &Scan{g: g, bp: bindPath(p, schema), schema: schema} }
	oB := Path{Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}}, Edges: []Edge{{Kind: EdgeDirect}}}
	return map[string]func(in Op) Op{
		"scan":   func(in Op) Op { return in },
		"filter": func(in Op) Op { return &Filter{input: in, fn: func(*Schema, Row) (bool, error) { return true, nil }} },
		"dedup":  func(in Op) Op { return &Dedup{input: in, on: []string{"x"}, onCols: []int{0}} },
		"extend": func(in Op) Op {
			p := Path{Nodes: []Node{{Var: "x"}, {Var: "y"}}, Edges: []Edge{{Kind: EdgeDirect}}}
			return &Extend{input: in, g: g, bp: bindPath(p, schema), schema: schema}
		},
		"hash join probe side": func(in Op) Op {
			return &HashJoin{left: in, right: scan(oB), on: []string{"x"}, onCols: []int{0}, schema: schema}
		},
		"include": func(in Op) Op {
			p := Path{Nodes: []Node{{Var: "x"}, {}}, Edges: []Edge{{Kind: EdgePlus}}}
			return &Include{input: in, g: g, out: &Projection{}, paths: []boundPath{bindPath(p, schema)}}
		},
	}
}

// TestEachStopsEarly: a run whose yield returns false ends without an
// error and reads no further row of its input, through every operator;
// a distinct join, which reads its inputs whole first, emits no further
// combination.
func TestEachStopsEarly(t *testing.T) {
	g := NewMem(diamondGraph(20))
	schema := NewSchema([]string{"x", "y"})
	o := func() *Scan {
		return &Scan{g: g, bp: bindPath(Path{Nodes: []Node{{Rel: "O", Var: "x"}}}, schema), schema: schema}
	}
	for name, over := range eachOps(g, schema) {
		pulled, yielded := 0, 0
		if err := over(countingFilter(o(), &pulled)).each(func(Row) bool {
			yielded++
			return false
		}); err != nil {
			t.Errorf("%s: stopped run failed: %v", name, err)
		}
		if yielded != 1 || pulled != 1 {
			t.Errorf("%s: stopped at the first row, the run yielded %d rows and read %d; want 1 and 1", name, yielded, pulled)
		}
	}
	oB := Path{Nodes: []Node{{Rel: "O", Var: "x"}, {Rel: "B", Var: "y"}}, Edges: []Edge{{Kind: EdgeDirect}}}
	j := &HashJoin{left: o(), right: &Scan{g: g, bp: bindPath(oB, schema), schema: schema}, on: []string{"x"}, onCols: []int{0}, schema: schema}
	d := newDistinctJoin(j, []string{"x", "y"}, []int{0, 1}, nil)
	yielded := 0
	if err := d.each(func(Row) bool { yielded++; return false }); err != nil || yielded != 1 {
		t.Errorf("distinct join stopped at its first row: %d rows, err %v; want 1, nil", yielded, err)
	}
}

// TestEachReturnsMidRunError: an error in the middle of a run ends it,
// after the rows yielded before it, and comes back from each and from
// the plan's answer.
func TestEachReturnsMidRunError(t *testing.T) {
	g := NewMem(diamondGraph(20))
	schema := NewSchema([]string{"x", "y"})
	o := &Scan{g: g, bp: bindPath(Path{Nodes: []Node{{Rel: "O", Var: "x"}}}, schema), schema: schema}
	for name, over := range eachOps(g, schema) {
		// The rows of the first two input rows, from a run that ends there.
		want, seen := 0, 0
		first2 := &Filter{input: o, fn: func(*Schema, Row) (bool, error) { seen++; return seen <= 2, nil }}
		if err := over(first2).each(func(Row) bool { want++; return true }); err != nil {
			t.Fatal(err)
		}
		yielded := 0
		err := over(failingFilter(o, 2)).each(func(Row) bool {
			yielded++
			return true
		})
		if !errors.Is(err, errBoom) || yielded != want {
			t.Errorf("%s: run yielded %d rows and ended with %v; want %d and %v", name, yielded, err, want, errBoom)
		}
	}
	j := &HashJoin{left: o, right: failingFilter(o, 2), on: []string{"x"}, onCols: []int{0}, schema: schema}
	yielded := 0
	if err := j.each(func(Row) bool { yielded++; return true }); !errors.Is(err, errBoom) || yielded != 0 {
		t.Errorf("hash join build side: %d rows, err %v; want 0 and %v", yielded, err, errBoom)
	}
	plan := compilePlan(t, diamondGraph(20), Spec{
		Paths:   []Path{{Nodes: []Node{{Rel: "O", Var: "x"}}}},
		Filters: []FilterSpec{{Desc: testDesc("fail"), Vars: []string{"x"}, Fn: failingFilter(nil, 2).fn}},
		Return:  []string{"x"},
	})
	if a, err := plan.Answer(); !errors.Is(err, errBoom) || a.Rows != 0 {
		t.Errorf("answer = %d rows, %v; want none and %v", a.Rows, err, errBoom)
	}
}

// testDesc is a filter's EXPLAIN text.
type testDesc string

func (d testDesc) String() string { return string(d) }
