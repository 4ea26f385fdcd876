package model

import (
	"fmt"
	"sort"
	"strings"
)

// Term is an argument position in a mapping atom: either a variable or
// a constant. Exactly one of Var/Const is meaningful, discriminated by
// IsConst.
type Term struct {
	Var     string
	Const   Datum
	IsConst bool
}

// V constructs a variable term.
func V(name string) Term { return Term{Var: name} }

// C constructs a constant term.
func C(d Datum) Term { return Term{Const: d, IsConst: true} }

func (t Term) String() string {
	if t.IsConst {
		return FormatDatum(t.Const)
	}
	return t.Var
}

// Equal reports whether two terms are identical.
func (t Term) Equal(o Term) bool {
	if t.IsConst != o.IsConst {
		return false
	}
	if t.IsConst {
		return Equal(t.Const, o.Const)
	}
	return t.Var == o.Var
}

// Atom is a relational atom R(t1, ..., tn) in a mapping or Datalog rule.
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, args ...Term) Atom { return Atom{Rel: rel, Args: args} }

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Vars returns the distinct variable names in the atom, in first-use order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if !t.IsConst && t.Var != "_" && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// Rename returns a copy of the atom with every variable passed through f.
func (a Atom) Rename(f func(string) string) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsConst {
			args[i] = t
		} else {
			args[i] = V(f(t.Var))
		}
	}
	return Atom{Rel: a.Rel, Args: args}
}

// Mapping is a schema mapping in the extended-Datalog form of Example
// 2.1: a conjunctive body deriving one or more head atoms. Mappings with
// multiple head atoms model GLAV tuple-generating dependencies (the
// paper's "m source atoms and n target atoms"). A single derivation node
// in the provenance graph relates all body tuples to all head tuples.
type Mapping struct {
	Name string
	Head []Atom
	Body []Atom
}

// NewMapping builds a mapping with a single head atom (the common case).
func NewMapping(name string, head Atom, body ...Atom) *Mapping {
	return &Mapping{Name: name, Head: []Atom{head}, Body: body}
}

// NewMultiHeadMapping builds a mapping with several head atoms.
func NewMultiHeadMapping(name string, head []Atom, body []Atom) *Mapping {
	return &Mapping{Name: name, Head: head, Body: body}
}

func (m *Mapping) String() string {
	heads := make([]string, len(m.Head))
	for i, h := range m.Head {
		heads[i] = h.String()
	}
	bodies := make([]string, len(m.Body))
	for i, b := range m.Body {
		bodies[i] = b.String()
	}
	return fmt.Sprintf("%s : %s :- %s", m.Name, strings.Join(heads, ", "), strings.Join(bodies, ", "))
}

// Validate checks the mapping against a schema: all relations exist,
// arities match, head variables are range-restricted (appear in the
// body), and no head targets a local-contribution relation.
func (m *Mapping) Validate(s *Schema) error {
	if m.Name == "" {
		return fmt.Errorf("model: mapping must have a name")
	}
	if len(m.Head) == 0 {
		return fmt.Errorf("model: mapping %s has no head atoms", m.Name)
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("model: mapping %s has no body atoms", m.Name)
	}
	check := func(a Atom, where string) error {
		r, ok := s.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("model: mapping %s %s references unknown relation %q", m.Name, where, a.Rel)
		}
		if len(a.Args) != r.Arity() {
			return fmt.Errorf("model: mapping %s %s atom %s has arity %d, relation has %d",
				m.Name, where, a.Rel, len(a.Args), r.Arity())
		}
		return nil
	}
	bodyVars := make(map[string]bool)
	for _, a := range m.Body {
		if err := check(a, "body"); err != nil {
			return err
		}
		for _, v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	for _, a := range m.Head {
		if err := check(a, "head"); err != nil {
			return err
		}
		if r, _ := s.Relation(a.Rel); r.IsLocal {
			return fmt.Errorf("model: mapping %s derives into local relation %q", m.Name, a.Rel)
		}
		for _, t := range a.Args {
			if !t.IsConst && t.Var != "_" && !bodyVars[t.Var] {
				return fmt.Errorf("model: mapping %s head variable %q not bound in body", m.Name, t.Var)
			}
			if !t.IsConst && t.Var == "_" {
				return fmt.Errorf("model: mapping %s has wildcard in head", m.Name)
			}
		}
	}
	return nil
}

// IsProjection reports whether the mapping is a pure projection: a
// single body atom whose variables cover every head variable, with no
// self-joins. Such mappings have "superfluous" provenance relations
// (Section 4.1) that are represented as virtual views over the source.
func (m *Mapping) IsProjection() bool {
	return len(m.Body) == 1
}

// ProvenanceAttrs computes the deduplicated attribute list of the
// mapping's provenance relation P^m (Section 4.1): for each body and
// head atom, the key attributes of the corresponding relation, keeping
// only one copy of any variable that is constrained to be equal across
// positions. Constants are omitted (recoverable from the mapping
// definition). The result is the ordered list of variable names, each
// with the datum type taken from its first occurrence.
func (m *Mapping) ProvenanceAttrs(s *Schema) ([]Column, []string, error) {
	var cols []Column
	var vars []string
	seen := make(map[string]bool)
	add := func(a Atom) error {
		r, ok := s.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("model: unknown relation %q", a.Rel)
		}
		for _, k := range r.Key {
			t := a.Args[k]
			if t.IsConst {
				continue
			}
			if t.Var == "_" {
				return fmt.Errorf("model: mapping %s has wildcard key attribute in %s", m.Name, a.Rel)
			}
			if seen[t.Var] {
				continue
			}
			seen[t.Var] = true
			vars = append(vars, t.Var)
			cols = append(cols, Column{Name: t.Var, Type: r.Columns[k].Type})
		}
		return nil
	}
	for _, a := range m.Body {
		if err := add(a); err != nil {
			return nil, nil, err
		}
	}
	for _, a := range m.Head {
		if err := add(a); err != nil {
			return nil, nil, err
		}
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("model: mapping %s has no provenance attributes", m.Name)
	}
	return cols, vars, nil
}

// SortedVars returns sorted distinct variables of a set of atoms;
// useful for deterministic plan construction.
func SortedVars(atoms []Atom) []string {
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, v := range a.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
