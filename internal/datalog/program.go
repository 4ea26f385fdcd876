// Package datalog implements the Datalog machinery the paper's pipeline
// rests on: bottom-up evaluation with derivation hooks (used by update
// exchange to materialize instances and populate provenance relations,
// Section 4.1), and unification and homomorphism finding (used by the
// ASR rewriting algorithm of Figure 4). ProQL's rule unfolding (Section
// 4.2.4) lives in package proql.
package datalog

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Rule is a (possibly multi-head) Datalog rule. Multi-head rules model
// GLAV schema mappings whose single derivation relates several target
// tuples.
type Rule struct {
	// ID names the rule; for mapping rules it is the mapping name, so
	// derivation hooks can attribute derivations to mappings.
	ID    string
	Heads []model.Atom
	Body  []model.Atom
}

// NewRule builds a single-head rule.
func NewRule(id string, head model.Atom, body ...model.Atom) Rule {
	return Rule{ID: id, Heads: []model.Atom{head}, Body: body}
}

func (r Rule) String() string {
	heads := make([]string, len(r.Heads))
	for i, h := range r.Heads {
		heads[i] = h.String()
	}
	bodies := make([]string, len(r.Body))
	for i, b := range r.Body {
		bodies[i] = b.String()
	}
	return fmt.Sprintf("%s : %s :- %s", r.ID, strings.Join(heads, ", "), strings.Join(bodies, ", "))
}

// Vars returns the distinct variables of the rule in first-use order
// (body first, then heads).
func (r Rule) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(a model.Atom) {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	for _, a := range r.Body {
		add(a)
	}
	for _, a := range r.Heads {
		add(a)
	}
	return out
}

// RuleFromMapping converts a schema mapping to a Datalog rule.
func RuleFromMapping(m *model.Mapping) Rule {
	return Rule{ID: m.Name, Heads: m.Head, Body: m.Body}
}
