package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// Differential testing in the PR-1 style: random positive Datalog
// programs evaluated by the compiled engine must yield exactly the
// fixpoint and (set of) hook firings the legacy interpreter yields —
// and additionally the compiled engine must never enumerate the same
// derivation twice.

// diffSetting is one randomly generated program plus its base data,
// replayable onto fresh databases so each engine evaluates identical
// inputs.
type diffSetting struct {
	arities map[string]int
	facts   map[string][]model.Tuple
	rules   []Rule
}

// genDiffSetting draws a random program: 2 EDB predicates with random
// facts, 3 IDB predicates, and 2–4 range-restricted rules mixing
// variables, constants, and wildcards over a tiny datum domain (so
// fixpoints stay small while recursion, self-joins, and cross products
// all occur).
func genDiffSetting(rng *rand.Rand) diffSetting {
	s := diffSetting{arities: map[string]int{}, facts: map[string][]model.Tuple{}}
	edb := []string{"e0", "e1"}
	idb := []string{"p0", "p1", "p2"}
	for _, p := range append(append([]string{}, edb...), idb...) {
		s.arities[p] = 1 + rng.Intn(2)
	}
	const domain = 3
	for _, p := range edb {
		n := 3 + rng.Intn(6)
		for i := 0; i < n; i++ {
			row := make(model.Tuple, s.arities[p])
			for k := range row {
				row[k] = int64(rng.Intn(domain))
			}
			s.facts[p] = append(s.facts[p], row)
		}
	}
	pool := []string{"x", "y", "z", "w"}
	all := append(append([]string{}, edb...), idb...)
	nRules := 2 + rng.Intn(3)
	for ri := 0; ri < nRules; ri++ {
		var body []model.Atom
		varSet := map[string]bool{}
		nAtoms := 1 + rng.Intn(3)
		for ai := 0; ai < nAtoms; ai++ {
			rel := all[rng.Intn(len(all))]
			args := make([]model.Term, s.arities[rel])
			for k := range args {
				switch roll := rng.Intn(10); {
				case roll < 6:
					v := pool[rng.Intn(len(pool))]
					args[k] = model.V(v)
					varSet[v] = true
				case roll < 8:
					args[k] = model.C(int64(rng.Intn(domain)))
				default:
					args[k] = model.V("_")
				}
			}
			body = append(body, model.Atom{Rel: rel, Args: args})
		}
		var bodyVars []string
		for v := range varSet {
			bodyVars = append(bodyVars, v)
		}
		head := idb[rng.Intn(len(idb))]
		hargs := make([]model.Term, s.arities[head])
		for k := range hargs {
			if len(bodyVars) > 0 && rng.Intn(10) < 8 {
				hargs[k] = model.V(bodyVars[rng.Intn(len(bodyVars))])
			} else {
				hargs[k] = model.C(int64(rng.Intn(domain)))
			}
		}
		s.rules = append(s.rules, Rule{
			ID:    fmt.Sprintf("r%d", ri),
			Heads: []model.Atom{{Rel: head, Args: hargs}},
			Body:  body,
		})
	}
	return s
}

// materialize replays the setting onto a fresh database.
func (s diffSetting) materialize(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase()
	for p, arity := range s.arities {
		mkTable(t, db, p, arity, true)
	}
	for p, rows := range s.facts {
		tbl := db.MustTable(p)
		for _, row := range rows {
			if _, err := tbl.Insert(append(model.Tuple(nil), row...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func tableSignature(db *relstore.Database, names []string) string {
	sig := ""
	for _, n := range names {
		sig += n + ":"
		for _, row := range db.MustTable(n).SortedRows() {
			sig += model.EncodeDatums(row) + ";"
		}
		sig += "\n"
	}
	return sig
}

func TestDifferentialCompiledVsLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 80; trial++ {
		s := genDiffSetting(rng)
		var names []string
		for p := range s.arities {
			names = append(names, p)
		}

		legacyDB := s.materialize(t)
		legacy := NewEngineLegacy(legacyDB)
		legacyFirings := map[string]int{}
		legacy.Hook = func(r *Rule, b Binding) {
			legacyFirings[firingKey(r, b)]++
		}
		if err := legacy.Run(s.rules); err != nil {
			t.Fatalf("trial %d: legacy: %v", trial, err)
		}

		compiledDB := s.materialize(t)
		compiled := NewEngine(compiledDB)
		compiledFirings := map[string]int{}
		compiled.Hook = func(r *Rule, vars []string, slots []model.Datum) {
			compiledFirings[firingKey(r, BindingFromSlots(vars, slots))]++
		}
		if err := compiled.Run(s.rules); err != nil {
			t.Fatalf("trial %d: compiled: %v\nrules: %v", trial, err, s.rules)
		}

		// Identical fixpoints.
		lsig, csig := tableSignature(legacyDB, names), tableSignature(compiledDB, names)
		if lsig != csig {
			t.Fatalf("trial %d: fixpoints differ\nrules: %v\nlegacy:\n%s\ncompiled:\n%s",
				trial, s.rules, lsig, csig)
		}
		// Identical firing sets (the legacy engine may enumerate a
		// derivation several times; as a set both engines must agree).
		for key := range legacyFirings {
			if compiledFirings[key] == 0 {
				t.Fatalf("trial %d: firing %s seen by legacy only\nrules: %v", trial, key, s.rules)
			}
		}
		// A firing is a distinct combination of body tuples; the hook
		// only sees the variable binding, which is injective in the
		// tuple combination exactly when the rule has no body
		// wildcards (tables here are keyed on all columns). Restrict
		// the enumerated-exactly-once check to those rules.
		wildcardRule := map[string]bool{}
		anyWildcard := false
		for _, r := range s.rules {
			for _, a := range r.Body {
				for _, arg := range a.Args {
					if !arg.IsConst && arg.Var == "_" {
						wildcardRule[r.ID] = true
						anyWildcard = true
					}
				}
			}
		}
		for key, n := range compiledFirings {
			if legacyFirings[key] == 0 {
				t.Fatalf("trial %d: firing %s seen by compiled only\nrules: %v", trial, key, s.rules)
			}
			ruleID := key
			for i := 0; i < len(key); i++ {
				if key[i] == '|' {
					ruleID = key[:i]
					break
				}
			}
			if !wildcardRule[ruleID] && n != 1 {
				t.Fatalf("trial %d: compiled enumerated %s %d times\nrules: %v", trial, key, n, s.rules)
			}
		}
		if !anyWildcard && compiled.Derivations != len(compiledFirings) {
			t.Fatalf("trial %d: compiled Derivations=%d, distinct firings=%d",
				trial, compiled.Derivations, len(compiledFirings))
		}
	}
}
