package model

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type DatumType
}

// Relation is a relation schema: a name, an ordered list of columns, and
// the positions of the primary-key columns. Following Section 4.1 of the
// paper, every relation connected by provenance must have a key; the key
// values identify tuple nodes in the provenance graph.
type Relation struct {
	Name    string
	Columns []Column
	Key     []int // indices into Columns

	// IsLocal marks a local-contribution relation (R_l in the paper):
	// leaves of the provenance graph live here.
	IsLocal bool
}

// NewRelation builds a relation schema. keyCols names the primary-key
// columns; they must all exist.
func NewRelation(name string, cols []Column, keyCols ...string) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("model: relation name must be non-empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("model: relation %s must have at least one column", name)
	}
	seen := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("model: relation %s column %d has empty name", name, i)
		}
		if _, dup := seen[c.Name]; dup {
			return nil, fmt.Errorf("model: relation %s has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = i
	}
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("model: relation %s must declare a key", name)
	}
	key := make([]int, 0, len(keyCols))
	for _, kc := range keyCols {
		idx, ok := seen[kc]
		if !ok {
			return nil, fmt.Errorf("model: relation %s key column %q not found", name, kc)
		}
		key = append(key, idx)
	}
	return &Relation{Name: name, Columns: cols, Key: key}, nil
}

// MustRelation is NewRelation that panics on error; for statically-known
// schemas in tests and examples.
func MustRelation(name string, cols []Column, keyCols ...string) *Relation {
	r, err := NewRelation(name, cols, keyCols...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Columns) }

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// KeyNames returns the names of the key columns in key order.
func (r *Relation) KeyNames() []string {
	names := make([]string, len(r.Key))
	for i, k := range r.Key {
		names[i] = r.Columns[k].Name
	}
	return names
}

// KeyOf extracts the key datums of a row of this relation.
func (r *Relation) KeyOf(row []Datum) []Datum {
	key := make([]Datum, len(r.Key))
	for i, k := range r.Key {
		key[i] = row[k]
	}
	return key
}

// LocalName returns the conventional name of the local-contribution
// relation paired with r (the paper's R_l).
func (r *Relation) LocalName() string { return r.Name + "_l" }

// LocalRelation derives the local-contribution relation schema for r:
// same columns and key, IsLocal set.
func (r *Relation) LocalRelation() *Relation {
	cols := make([]Column, len(r.Columns))
	copy(cols, r.Columns)
	key := make([]int, len(r.Key))
	copy(key, r.Key)
	return &Relation{Name: r.LocalName(), Columns: cols, Key: key, IsLocal: true}
}

func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.Name)
	sb.WriteByte('(')
	keySet := make(map[int]bool, len(r.Key))
	for _, k := range r.Key {
		keySet[k] = true
	}
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		if keySet[i] {
			sb.WriteByte('*')
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// Schema is a complete CDSS setting: the public relations of all peers,
// their local-contribution relations, and the schema mappings that
// inter-relate them (Example 2.1 of the paper).
type Schema struct {
	relations map[string]*Relation
	mappings  map[string]*Mapping
	// mappingOrder preserves declaration order for deterministic
	// iteration (exchange stratification, schema-graph construction).
	mappingOrder []string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{
		relations: make(map[string]*Relation),
		mappings:  make(map[string]*Mapping),
	}
}

// AddRelation registers a public relation together with its derived
// local-contribution relation.
func (s *Schema) AddRelation(r *Relation) error {
	if _, ok := s.relations[r.Name]; ok {
		return fmt.Errorf("model: relation %q already declared", r.Name)
	}
	s.relations[r.Name] = r
	if !r.IsLocal {
		loc := r.LocalRelation()
		if _, ok := s.relations[loc.Name]; ok {
			return fmt.Errorf("model: relation %q already declared", loc.Name)
		}
		s.relations[loc.Name] = loc
	}
	return nil
}

// Relation looks up a relation schema by name.
func (s *Schema) Relation(name string) (*Relation, bool) {
	r, ok := s.relations[name]
	return r, ok
}

// Relations returns all relations sorted by name.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.relations))
	for _, r := range s.relations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PublicRelations returns the non-local relations sorted by name.
func (s *Schema) PublicRelations() []*Relation {
	out := make([]*Relation, 0, len(s.relations))
	for _, r := range s.relations {
		if !r.IsLocal {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddMapping registers a schema mapping after validating it against the
// declared relations.
func (s *Schema) AddMapping(m *Mapping) error {
	if _, ok := s.mappings[m.Name]; ok {
		return fmt.Errorf("model: mapping %q already declared", m.Name)
	}
	if err := m.Validate(s); err != nil {
		return err
	}
	s.mappings[m.Name] = m
	s.mappingOrder = append(s.mappingOrder, m.Name)
	return nil
}

// Mapping looks up a mapping by name.
func (s *Schema) Mapping(name string) (*Mapping, bool) {
	m, ok := s.mappings[name]
	return m, ok
}

// Mappings returns mappings in declaration order.
func (s *Schema) Mappings() []*Mapping {
	out := make([]*Mapping, 0, len(s.mappingOrder))
	for _, name := range s.mappingOrder {
		out = append(out, s.mappings[name])
	}
	return out
}

// NumMappings returns the number of mappings, without the copy
// Mappings makes.
func (s *Schema) NumMappings() int { return len(s.mappingOrder) }

// MappingsInto returns the mappings whose head includes relation rel.
func (s *Schema) MappingsInto(rel string) []*Mapping {
	var out []*Mapping
	for _, name := range s.mappingOrder {
		m := s.mappings[name]
		for _, h := range m.Head {
			if h.Rel == rel {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// MappingsFrom returns the mappings whose body includes relation rel.
func (s *Schema) MappingsFrom(rel string) []*Mapping {
	var out []*Mapping
	for _, name := range s.mappingOrder {
		m := s.mappings[name]
		for _, b := range m.Body {
			if b.Rel == rel {
				out = append(out, m)
				break
			}
		}
	}
	return out
}
