package provgraph_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/provgraph"
	"repro/internal/workload"
)

// graphContent renders a graph as a set: every tuple node with its row,
// leaf mark and adjacent derivations, every derivation node with its
// sources and targets in atom order.
func graphContent(g *provgraph.Graph) string {
	ids := func(ds []*provgraph.DerivNode) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.ID
		}
		sort.Strings(out)
		return out
	}
	var lines []string
	for _, tn := range g.Tuples() {
		lines = append(lines, fmt.Sprintf("T %v leaf=%v row=%v in=%v out=%v", tn.Ref, tn.Leaf, tn.Row, ids(tn.Derivations), ids(tn.Uses)))
	}
	for _, d := range g.Derivations() {
		var src, tgt []string
		for _, s := range d.Sources {
			src = append(src, s.Ref.String())
		}
		for _, s := range d.Targets {
			tgt = append(tgt, s.Ref.String())
		}
		lines = append(lines, fmt.Sprintf("D %s %s %v -> %v row=%v", d.ID, d.Mapping, src, tgt, d.ProvRow))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// patchChecker carries what must hold across the patches of one graph:
// a node keeps its identity and ordinal while it lives, and a new node's
// ordinal is above every ordinal handed out before.
type patchChecker struct {
	tuples           map[model.TupleRef]*provgraph.TupleNode
	derivs           map[string]*provgraph.DerivNode
	maxTuple, maxDer int
}

// check compares the patched graph with a from-scratch Build of the
// same system state and verifies the order invariants of the patched
// one: the whole-graph lists and every label and mapping list are in
// strictly increasing ordinal order (so survivors keep their relative
// order), hold exactly the live nodes, and the per-label lists are the
// whole-graph list filtered by label.
func (pc *patchChecker) check(t *testing.T, g *provgraph.Graph, sys *exchange.System, label string) {
	t.Helper()
	rebuilt, err := provgraph.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := graphContent(g), graphContent(rebuilt); got != want {
		t.Fatalf("%s: patched graph differs from rebuild\npatched:\n%s\nrebuilt:\n%s", label, got, want)
	}
	if g.NumTuples() != rebuilt.NumTuples() || g.NumDerivations() != rebuilt.NumDerivations() {
		t.Fatalf("%s: counts %d/%d, rebuilt %d/%d", label, g.NumTuples(), g.NumDerivations(), rebuilt.NumTuples(), rebuilt.NumDerivations())
	}

	tuples := g.Tuples()
	byRel := map[string][]*provgraph.TupleNode{}
	nextT, nextMaxT := map[model.TupleRef]*provgraph.TupleNode{}, pc.maxTuple
	for i, tn := range tuples {
		if i > 0 && tuples[i-1].Ord() >= tn.Ord() {
			t.Fatalf("%s: tuple order not by ordinal at %d: %d then %d", label, i, tuples[i-1].Ord(), tn.Ord())
		}
		if got, ok := g.Lookup(tn.Ref); !ok || got != tn {
			t.Fatalf("%s: listed tuple %v is not the registered node", label, tn.Ref)
		}
		if prev, lived := pc.tuples[tn.Ref]; !lived || prev != tn {
			if tn.Ord() <= pc.maxTuple {
				t.Fatalf("%s: new tuple %v got ordinal %d, already handed out (max %d)", label, tn.Ref, tn.Ord(), pc.maxTuple)
			}
		}
		nextT[tn.Ref] = tn
		nextMaxT = max(nextMaxT, tn.Ord())
		byRel[tn.Ref.Rel] = append(byRel[tn.Ref.Rel], tn)
	}
	if len(tuples) != g.NumTuples() {
		t.Fatalf("%s: %d tuples listed, %d registered", label, len(tuples), g.NumTuples())
	}
	for _, r := range sys.Schema.Relations() {
		var got []*provgraph.TupleNode
		g.EachTupleOf(r.Name, func(tn *provgraph.TupleNode) bool {
			got = append(got, tn)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(byRel[r.Name]) || g.NumTuplesOf(r.Name) != len(got) {
			t.Fatalf("%s: label index of %s: %d nodes (count %d), the order list has %d", label, r.Name, len(got), g.NumTuplesOf(r.Name), len(byRel[r.Name]))
		}
	}

	derivs := g.Derivations()
	byMapping := map[string][]*provgraph.DerivNode{}
	nextD, nextMaxD := map[string]*provgraph.DerivNode{}, pc.maxDer
	for i, d := range derivs {
		if i > 0 && derivs[i-1].Ord() >= d.Ord() {
			t.Fatalf("%s: derivation order not by ordinal at %d", label, i)
		}
		if prev, lived := pc.derivs[d.ID]; !lived || prev != d {
			if d.Ord() <= pc.maxDer {
				t.Fatalf("%s: new derivation %s got ordinal %d, already handed out (max %d)", label, d.ID, d.Ord(), pc.maxDer)
			}
		}
		nextD[d.ID] = d
		nextMaxD = max(nextMaxD, d.Ord())
		byMapping[d.Mapping] = append(byMapping[d.Mapping], d)
	}
	if len(derivs) != g.NumDerivations() {
		t.Fatalf("%s: %d derivations listed, %d registered", label, len(derivs), g.NumDerivations())
	}
	for _, m := range sys.Schema.Mappings() {
		var got []*provgraph.DerivNode
		g.EachDerivationOf(m.Name, func(d *provgraph.DerivNode) bool {
			got = append(got, d)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(byMapping[m.Name]) || g.NumDerivationsOf(m.Name) != len(got) {
			t.Fatalf("%s: mapping index of %s: %d nodes (count %d), the order list has %d", label, m.Name, len(got), g.NumDerivationsOf(m.Name), len(byMapping[m.Name]))
		}
	}
	pc.tuples, pc.maxTuple, pc.derivs, pc.maxDer = nextT, nextMaxT, nextD, nextMaxD
}

// TestPatchChurnMatchesRebuild drives one cached graph through a long
// random sequence of deletions and insertions — single keys at the
// head, middle and tail of the insertion order, batches, a category row
// that a slice of every mapping's derivations joins through, a whole
// data peer (which empties its mappings' lists), fresh keys, and the
// re-insertion of everything deleted — patching it with Apply and
// ApplyInsertions, and after every step compares it with Build from
// scratch and checks the order lists.
func TestPatchChurnMatchesRebuild(t *testing.T) {
	for _, cfg := range []workload.Config{
		{Topology: workload.Chain, Profile: workload.ProfileLinear, NumPeers: 4, DataPeers: []int{1, 3}, BaseSize: 30, Categories: 4, Seed: 3},
		{Topology: workload.Branched, Profile: workload.ProfileFan, NumPeers: 5, DataPeers: []int{2, 4}, BaseSize: 16, Categories: 3, Seed: 5},
	} {
		set, err := workload.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := set.Sys
		g, err := provgraph.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		pc := &patchChecker{maxTuple: -1, maxDer: -1}
		name := fmt.Sprintf("%s/%s", cfg.Topology, cfg.Profile)
		pc.check(t, g, sys, name+" built")

		// The relations with local contributions, and per relation the
		// rows currently deleted.
		locals := []string{}
		for p := 0; p < cfg.NumPeers; p++ {
			locals = append(locals, workload.BRel(p))
		}
		for _, p := range cfg.DataPeers {
			locals = append(locals, workload.ARel(p))
			if cfg.Profile == workload.ProfileFan {
				locals = append(locals, workload.XRel(p))
			}
		}
		gone := map[string][]model.Tuple{}
		fresh := int64(5_000)

		remove := func(rel string, rows []model.Tuple, label string) {
			r, _ := sys.Schema.Relation(rel)
			keys := make([][]model.Datum, len(rows))
			for i, row := range rows {
				keys[i] = r.KeyOf(row)
			}
			report, err := sys.DeleteLocal(rel, keys...)
			if err != nil {
				t.Fatal(err)
			}
			provgraph.Apply(g, sys, report)
			gone[rel] = append(gone[rel], rows...)
			pc.check(t, g, sys, label)
		}
		insert := func(rel string, rows []model.Tuple, label string) {
			if err := sys.InsertLocal(rel, rows...); err != nil {
				t.Fatal(err)
			}
			report, err := sys.RunDelta()
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := provgraph.ApplyInsertions(g, sys, report); !ok || err != nil {
				t.Fatalf("%s: ApplyInsertions = %v, %v (full run %v)", label, ok, err, report.Full)
			}
			pc.check(t, g, sys, label)
		}

		for step := 0; step < 250; step++ {
			rel := locals[rng.Intn(len(locals))]
			label := fmt.Sprintf("%s step %d on %s", name, step, rel)
			// Local rows in insertion (= key) order.
			rows := sys.DB.MustTable(rel + "_l").SortedRows()
			switch op := rng.Intn(12); {
			case op < 3 && len(rows) > 0:
				at := []int{0, len(rows) / 2, len(rows) - 1, rng.Intn(len(rows))}[rng.Intn(4)]
				remove(rel, rows[at:at+1], label+": delete one")
			case op == 3 && len(rows) > 1:
				from := rng.Intn(len(rows) - 1)
				remove(rel, rows[from:from+1+rng.Intn(len(rows)-from-1)], label+": delete a run")
			case op == 4 && step%4 == 0 && len(rows) > 0:
				remove(rel, rows, label+": delete all")
			case op < 10 && len(gone[rel]) > 0:
				n := 1 + rng.Intn(len(gone[rel]))
				back := gone[rel][len(gone[rel])-n:]
				gone[rel] = gone[rel][:len(gone[rel])-n]
				insert(rel, back, label+": re-insert")
			case len(rows) > 0 && !strings.HasPrefix(rel, "B"):
				row := append(model.Tuple(nil), rows[rng.Intn(len(rows))]...)
				row[0] = fresh
				fresh++
				insert(rel, []model.Tuple{row}, label+": insert fresh")
			}
		}
		for _, rel := range locals {
			if len(gone[rel]) > 0 {
				insert(rel, gone[rel], name+" restore "+rel)
			}
		}
	}
}
