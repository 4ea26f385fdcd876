package physplan

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/stream"
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

func mustRows(t *testing.T, op Op) []Row {
	t.Helper()
	it, err := op.Open()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stream.Collect[Row](it)
	if err != nil {
		t.Fatal(err)
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
	rows := mustRows(t, plan.Root)
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
	if want := "start=index:mapping(mx)"; !contains(Explain(plan.Root), want) {
		t.Errorf("plan should use the mapping index:\n%s", Explain(plan.Root))
	}
	rows := mustRows(t, plan.Root)
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
	rows := mustRows(t, plan.Root)
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
	if !contains(Explain(plan.Root), "Extend(") {
		t.Fatalf("expected an Extend operator:\n%s", Explain(plan.Root))
	}
	rows := mustRows(t, plan.Root)
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
		Desc: "x = O(1)",
		Vars: []string{"x"},
		Fn: func(s *Schema, r Row) (bool, error) {
			calls++
			tn := r[s.Col("x")].(*provgraph.TupleNode)
			return tn.Ref == keep, nil
		},
	}
	plan := compilePlan(t, g, Spec{Paths: []Path{p1, p2}, Filters: []FilterSpec{filter}, Return: []string{"x", "z"}})
	rows := mustRows(t, plan.Root)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	// Pushdown: a lenient pruning copy must sit below Extend (closer to
	// the scan), with the authoritative filter at the top of the
	// pipeline.
	ex := Explain(plan.Root)
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

// TestScanCancelSurfaces: a scan whose Cancel starts failing after k
// start tuples must end with that error, never as a complete
// (truncated) result. The scan polls before every start tuple; on the
// path that matches nothing the failing poll falls inside one produce
// call that would otherwise run through every start.
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
			it, err := plan.Root.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			rows := 0
			for {
				_, ok, err := it.Next()
				if err != nil {
					if err != errStop {
						t.Fatalf("scan ended with %v, want %v", err, errStop)
					}
					break
				}
				if !ok {
					t.Fatalf("cancelled scan ended as a complete result after %d rows", rows)
				}
				rows++
			}
			if rows != tc.wantRows {
				t.Errorf("scan returned %d rows before the cancel, want %d", rows, tc.wantRows)
			}
		})
	}
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
		t.Fatalf("order = %v, want the narrow mapping-indexed path first\n%s", plan.Order, Explain(plan.Root))
	}
	rows := mustRows(t, plan.Root)
	// O(0)'s ancestors: B(0), C(0), A(0) → 3 z bindings with w=A(0).
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(rows), rowStrings(rows))
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
	rows := mustRows(t, plan.Root)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// All 10 derivations are ancestors of some O tuple, each recorded
	// once; so is each of the 3 start tuples.
	if len(out.Derivs) != 10 || len(out.Starts) != 3 {
		t.Errorf("recorded %d derivations and %d starts, want 10 and 3", len(out.Derivs), len(out.Starts))
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
	lenient := &Filter{input: scan, desc: "boom", fn: boom, lenient: true}
	rows := mustRows(t, lenient)
	if len(rows) != 2 {
		t.Fatalf("lenient filter should pass erroring rows through, got %d", len(rows))
	}
	// The authoritative copy surfaces the error.
	strict := &Filter{input: scan, desc: "boom", fn: boom}
	it, err := strict.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, _, err := it.Next(); err == nil {
		t.Fatal("strict filter must surface evaluation errors")
	}
}

// countingGraph counts the start-enumeration calls a plan makes.
type countingGraph struct {
	Mem
	byKey, byRel, all int
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
	if want := "start=key:O(7)"; !contains(Explain(plan.Root), want) {
		t.Errorf("plan should start from the key:\n%s", Explain(plan.Root))
	}
	// O(7)'s ancestors: B(7), C(7), A(7).
	if rows := mustRows(t, plan.Root); len(rows) != 3 {
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
		t.Fatalf("order = %v, want the key-pinned path first\n%s", plan.Order, Explain(plan.Root))
	}
	if rows := mustRows(t, plan.Root); len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (O(7), B(7) share A(7)): %v", len(rows), rowStrings(rows))
	}

	pinned.StartKey = []model.Datum{int64(50)}
	plan, err = Compile(g, Spec{Paths: []Path{pinned}, Return: []string{"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if rows := mustRows(t, plan.Root); len(rows) != 0 {
		t.Fatalf("absent key: rows = %v, want none", rowStrings(rows))
	}
}
