package exchange_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

// Differential testing: on randomly generated CDSS settings (acyclic
// and cyclic mapping graphs, random base data) and random deletion
// batches, DeleteLocal must leave the database and provenance tables
// byte-identical to a from-scratch re-exchange oracle over the
// surviving base data, and its report must count what storage lost.

// delSetting is one randomly generated schema + base data, replayable
// onto fresh systems so each arm sees identical inputs.
type delSetting struct {
	arities  []int
	facts    [][]model.Tuple
	mappings []*model.Mapping
	opts     exchange.Options
}

func relName(i int) string { return fmt.Sprintf("r%d", i) }

// genDelSetting draws a random setting: 4 public relations with
// all-column keys over a tiny int domain, 2–5 mappings with 1–2 body
// atoms (projection mappings exercise virtual provenance relations,
// multi-atom ones materialized tables), and — on cyclic trials — a
// mutually-recursive mapping pair, the shape where counting-based
// maintenance breaks and the cyclic fallback must collapse whole
// components.
func genDelSetting(rng *rand.Rand, cyclic bool) delSetting {
	s := delSetting{}
	const nRels = 4
	const domain = 3
	for i := 0; i < nRels; i++ {
		s.arities = append(s.arities, 1+rng.Intn(2))
	}
	s.facts = make([][]model.Tuple, nRels)
	for i := 0; i < nRels; i++ {
		n := rng.Intn(6)
		for k := 0; k < n; k++ {
			row := make(model.Tuple, s.arities[i])
			for c := range row {
				row[c] = int64(rng.Intn(domain))
			}
			s.facts[i] = append(s.facts[i], row)
		}
	}
	pool := []string{"x", "y", "z"}
	nMaps := 2 + rng.Intn(3)
	for mi := 0; mi < nMaps; mi++ {
		var body []model.Atom
		varSet := map[string]bool{}
		nAtoms := 1 + rng.Intn(2)
		for ai := 0; ai < nAtoms; ai++ {
			ri := rng.Intn(nRels)
			args := make([]model.Term, s.arities[ri])
			for k := range args {
				if rng.Intn(10) < 7 {
					v := pool[rng.Intn(len(pool))]
					args[k] = model.V(v)
					varSet[v] = true
				} else {
					args[k] = model.C(int64(rng.Intn(domain)))
				}
			}
			body = append(body, model.Atom{Rel: relName(ri), Args: args})
		}
		if len(varSet) == 0 {
			// A mapping needs at least one provenance attribute.
			body[0].Args[0] = model.V("x")
			varSet["x"] = true
		}
		var bodyVars []string
		for _, v := range pool {
			if varSet[v] {
				bodyVars = append(bodyVars, v)
			}
		}
		hi := rng.Intn(nRels)
		hargs := make([]model.Term, s.arities[hi])
		for k := range hargs {
			if len(bodyVars) > 0 && rng.Intn(10) < 8 {
				hargs[k] = model.V(bodyVars[rng.Intn(len(bodyVars))])
			} else {
				hargs[k] = model.C(int64(rng.Intn(domain)))
			}
		}
		s.mappings = append(s.mappings, model.NewMapping(
			fmt.Sprintf("mm%d", mi),
			model.Atom{Rel: relName(hi), Args: hargs},
			body...))
	}
	if cyclic {
		// Two same-arity relations copying each other: tuples of the
		// pair support each other and survive exactly as long as some
		// external support remains.
		a, b := 0, 1
		for s.arities[a] != s.arities[b] {
			a, b = rng.Intn(len(s.arities)), rng.Intn(len(s.arities))
		}
		args := make([]model.Term, s.arities[a])
		for k := range args {
			args[k] = model.V(pool[k])
		}
		s.mappings = append(s.mappings,
			model.NewMapping("cycAB", model.Atom{Rel: relName(b), Args: args}, model.Atom{Rel: relName(a), Args: args}),
			model.NewMapping("cycBA", model.Atom{Rel: relName(a), Args: args}, model.Atom{Rel: relName(b), Args: args}),
		)
	}
	s.opts = exchange.Options{MaterializeAll: rng.Intn(2) == 0}
	return s
}

// build replays the setting onto a fresh system, optionally with a
// subset of the facts (the oracle arm's surviving base data).
func (s delSetting) build(t *testing.T, facts [][]model.Tuple) *exchange.System {
	t.Helper()
	schema := model.NewSchema()
	for i, ar := range s.arities {
		cols := make([]model.Column, ar)
		var keys []string
		for c := 0; c < ar; c++ {
			cols[c] = model.Column{Name: fmt.Sprintf("c%d", c), Type: model.TypeInt}
			keys = append(keys, cols[c].Name)
		}
		if err := schema.AddRelation(model.MustRelation(relName(i), cols, keys...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range s.mappings {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := exchange.NewSystem(schema, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range facts {
		for _, row := range rows {
			if err := sys.InsertLocal(relName(i), row.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// signature renders the full storage state — every table's sorted rows
// plus every mapping's (possibly virtual) provenance rows — as one
// comparable string.
func signature(t *testing.T, sys *exchange.System) string {
	t.Helper()
	sig := ""
	for _, name := range sys.DB.TableNames() {
		sig += name + ":"
		for _, row := range sys.DB.MustTable(name).SortedRows() {
			sig += model.EncodeDatums(row) + ";"
		}
		sig += "\n"
	}
	for _, m := range sys.Schema.Mappings() {
		rows, err := sys.ProvRows(m.Name)
		if err != nil {
			t.Fatalf("ProvRows(%s): %v", m.Name, err)
		}
		encs := make([]string, len(rows))
		for i, row := range rows {
			encs[i] = model.EncodeDatums(row)
		}
		sortStrings(encs)
		sig += "P(" + m.Name + "):"
		for _, e := range encs {
			sig += e + ";"
		}
		sig += "\n"
	}
	return sig
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestDifferentialDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 70; trial++ {
		cyclic := trial%2 == 1
		s := genDelSetting(rng, cyclic)

		sysDelta := s.build(t, s.facts)

		// surviving[i] tracks the base rows not yet deleted, keyed by
		// encoding (all columns are the key).
		surviving := make([]map[string]model.Tuple, len(s.facts))
		for i, rows := range s.facts {
			surviving[i] = map[string]model.Tuple{}
			for _, row := range rows {
				surviving[i][model.EncodeDatums(row)] = row
			}
		}

		nBatches := 1 + rng.Intn(3)
		for batch := 0; batch < nBatches; batch++ {
			// Pick a relation and up to 2 of its surviving rows (plus,
			// sometimes, a key that does not exist).
			ri := rng.Intn(len(s.facts))
			var keys [][]model.Datum
			for enc, row := range surviving[ri] {
				if len(keys) >= 1+rng.Intn(2) {
					break
				}
				keys = append(keys, row)
				delete(surviving[ri], enc)
			}
			if rng.Intn(3) == 0 {
				missing := make([]model.Datum, s.arities[ri])
				for c := range missing {
					missing[c] = int64(99)
				}
				keys = append(keys, missing)
			}
			if len(keys) == 0 {
				continue
			}

			tuplesBefore, derivsBefore := publicRowCount(sysDelta), derivationCount(t, sysDelta)
			repDelta, err := sysDelta.DeleteLocal(relName(ri), keys...)
			if err != nil {
				t.Fatalf("trial %d batch %d: delta: %v", trial, batch, err)
			}
			if lost := tuplesBefore - publicRowCount(sysDelta); lost != repDelta.TuplesDeleted {
				t.Fatalf("trial %d batch %d: TuplesDeleted=%d, storage lost %d rows\nmappings: %v",
					trial, batch, repDelta.TuplesDeleted, lost, s.mappings)
			}
			if lost := derivsBefore - derivationCount(t, sysDelta); lost != repDelta.DerivationsDeleted {
				t.Fatalf("trial %d batch %d: DerivationsDeleted=%d, storage lost %d derivations\nmappings: %v",
					trial, batch, repDelta.DerivationsDeleted, lost, s.mappings)
			}
			if repDelta.LocalDeleted != len(repDelta.DeletedLocals) ||
				repDelta.TuplesDeleted != len(repDelta.DeletedTuples) ||
				repDelta.DerivationsDeleted != len(repDelta.DeletedDerivations) {
				t.Fatalf("trial %d batch %d: delta report lists inconsistent: %+v", trial, batch, repDelta)
			}

			oracleFacts := make([][]model.Tuple, len(s.facts))
			for i := range surviving {
				for _, row := range surviving[i] {
					oracleFacts[i] = append(oracleFacts[i], row)
				}
			}
			oracle := s.build(t, oracleFacts)

			if sigDelta, sigOracle := signature(t, sysDelta), signature(t, oracle); sigDelta != sigOracle {
				t.Fatalf("trial %d batch %d (cyclic=%v): delta != oracle\nmappings: %v\ndelta:\n%s\noracle:\n%s",
					trial, batch, cyclic, s.mappings, sigDelta, sigOracle)
			}
		}
	}
}
