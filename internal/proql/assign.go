package proql

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/semiring"
)

// convertAssignValue adapts a SET literal to the target semiring's
// value domain: booleans for derivability/trust, numbers widened to
// float64 for weight, integers or level names for confidentiality.
func convertAssignValue(s semiring.Semiring, d model.Datum) (semiring.Value, error) {
	switch s.Name() {
	case "DERIVABILITY", "TRUST":
		b, ok := d.(bool)
		if !ok {
			return nil, fmt.Errorf("proql: %s requires boolean SET values, got %T", s.Name(), d)
		}
		return b, nil
	case "WEIGHT":
		switch v := d.(type) {
		case int64:
			return float64(v), nil
		case float64:
			return v, nil
		}
		return nil, fmt.Errorf("proql: WEIGHT requires numeric SET values, got %T", d)
	case "CONFIDENTIALITY":
		switch v := d.(type) {
		case int64:
			return v, nil
		case string:
			switch v {
			case "public":
				return semiring.Public, nil
			case "internal":
				return semiring.Internal, nil
			case "confidential":
				return semiring.Confidential, nil
			case "secret":
				return semiring.Secret, nil
			case "top-secret", "top_secret":
				return semiring.TopSecret, nil
			}
			return nil, fmt.Errorf("proql: unknown confidentiality level %q", v)
		}
		return nil, fmt.Errorf("proql: CONFIDENTIALITY requires level SET values, got %T", d)
	case "COUNT":
		if v, ok := d.(int64); ok {
			return v, nil
		}
		return nil, fmt.Errorf("proql: COUNT requires integer SET values, got %T", d)
	}
	// Lineage, probability, posbool, polynomial, and custom semirings
	// accept booleans as their zero/one and otherwise reject literals:
	// their natural base values are tuple-derived (see defaultLeaf).
	if b, ok := d.(bool); ok {
		if b {
			return s.One(), nil
		}
		return s.Zero(), nil
	}
	return nil, fmt.Errorf("proql: semiring %s cannot convert SET value %v", s.Name(), model.FormatDatum(d))
}

// defaultLeaf computes the leaf value used when no ASSIGNING EACH
// leaf_node clause applies: the semiring's One for scalar semirings and
// the tuple-identity value for the provenance-token semirings, so that
// lineage/probability/polynomial queries work out of the box.
func defaultLeaf(s semiring.Semiring, ref model.TupleRef) semiring.Value {
	if token, ok := tokenLeaves[s.Name()]; ok {
		return token(ref.String())
	}
	return s.One()
}

// tokenLeaves builds, by semiring name, the default leaf value of the
// provenance-token semirings from the tuple's name.
var tokenLeaves = map[string]func(string) semiring.Value{
	"LINEAGE":     func(name string) semiring.Value { return semiring.NewLineage(name) },
	"PROBABILITY": func(name string) semiring.Value { return semiring.VarDNF(name) },
	"POSBOOL":     func(name string) semiring.Value { return semiring.VarDNF(name) },
	"POLYNOMIAL":  func(name string) semiring.Value { return semiring.VarPoly(name) },
}

// tokenLeaf reports whether defaultLeaf's value for s names the tuple:
// only then does an unassigned leaf's value need its ref.
func tokenLeaf(s semiring.Semiring) bool {
	_, ok := tokenLeaves[s.Name()]
	return ok
}

// leafContext supplies attribute access for evaluating ASSIGNING EACH
// leaf_node CASE conditions against one leaf tuple.
type leafContext struct {
	// Rel is the public relation the leaf belongs to.
	Rel string
	// Ref identifies the tuple.
	Ref model.TupleRef
	// Attr returns the named attribute's value, or an error.
	Attr func(name string) (model.Datum, error)
}

// evalLeafAssign resolves the leaf value for one leaf tuple under a
// clause (which may be nil). If multiple CASE conditions match, the
// first is used (paper footnote 3); with no DEFAULT, unmatched leaves
// get the semiring-specific default.
func evalLeafAssign(s semiring.Semiring, clause *AssignClause, ctx leafContext) (semiring.Value, error) {
	if clause == nil {
		return defaultLeaf(s, ctx.Ref), nil
	}
	for _, c := range clause.Cases {
		ok, err := evalLeafCond(c.Cond, clause.Var, ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			return convertAssignValue(s, c.Value.Lit)
		}
	}
	if clause.Default != nil {
		return convertAssignValue(s, clause.Default.Lit)
	}
	return defaultLeaf(s, ctx.Ref), nil
}

// evalLeafCond evaluates a CASE condition over one leaf tuple.
func evalLeafCond(c Cond, iterVar string, ctx leafContext) (bool, error) {
	switch cc := c.(type) {
	case CondIn:
		if cc.Var != iterVar {
			return false, fmt.Errorf("proql: CASE condition references unknown variable $%s", cc.Var)
		}
		return ctx.Rel == cc.Rel, nil
	case CondCmp:
		l, err := leafOperand(cc.L, iterVar, ctx)
		if err != nil {
			return false, err
		}
		r, err := leafOperand(cc.R, iterVar, ctx)
		if err != nil {
			return false, err
		}
		return compareDatums(cc.Op, l, r)
	case CondAnd:
		l, err := evalLeafCond(cc.L, iterVar, ctx)
		if err != nil || !l {
			return false, err
		}
		return evalLeafCond(cc.R, iterVar, ctx)
	case CondOr:
		l, err := evalLeafCond(cc.L, iterVar, ctx)
		if err != nil || l {
			return l, err
		}
		return evalLeafCond(cc.R, iterVar, ctx)
	case CondNot:
		v, err := evalLeafCond(cc.E, iterVar, ctx)
		return !v, err
	}
	return false, fmt.Errorf("proql: unsupported CASE condition")
}

func leafOperand(o CmpOperand, iterVar string, ctx leafContext) (model.Datum, error) {
	if o.Var == "" {
		return o.Lit, nil
	}
	if o.Var != iterVar {
		return nil, fmt.Errorf("proql: CASE condition references unknown variable $%s", o.Var)
	}
	if o.Attr == "" {
		return nil, fmt.Errorf("proql: bare $%s cannot be compared; use $%s.<attr> or IN", o.Var, o.Var)
	}
	return ctx.Attr(o.Attr)
}

// compareDatums applies a ProQL comparison operator with int/float
// coercion.
func compareDatums(op string, l, r model.Datum) (bool, error) {
	if l == nil || r == nil {
		return false, nil
	}
	if li, ok := l.(int64); ok {
		if _, isF := r.(float64); isF {
			l = float64(li)
		}
	}
	if ri, ok := r.(int64); ok {
		if _, isF := l.(float64); isF {
			r = float64(ri)
		}
	}
	if model.TypeOf(l) != model.TypeOf(r) {
		return op == "!=", nil
	}
	cmp := model.Compare(l, r)
	switch op {
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("proql: unknown comparison operator %q", op)
}

// buildMapFuncs precomputes, for every mapping name, the unary function
// of the ASSIGNING EACH mapping clause. With no clause every mapping is
// the identity N_m. CASE conditions may test $p = <mapping-name>; SET
// $z yields the identity, SET <literal> a constant function (which must
// send Zero to Zero per the paper's restriction — enforced here by
// wrapping constants to preserve Zero).
func buildMapFuncs(s semiring.Semiring, clause *AssignClause, mappings []string) (map[string]semiring.MappingFunc, error) {
	funcs := make(map[string]semiring.MappingFunc, len(mappings))
	for _, m := range mappings {
		if clause == nil {
			funcs[m] = semiring.Identity
			continue
		}
		f, err := mapFuncFor(s, clause, m)
		if err != nil {
			return nil, err
		}
		funcs[m] = f
	}
	return funcs, nil
}

func mapFuncFor(s semiring.Semiring, clause *AssignClause, mapping string) (semiring.MappingFunc, error) {
	for _, c := range clause.Cases {
		ok, err := evalMapCond(c.Cond, clause.Var, mapping)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if c.Value.UseArg {
			return semiring.Identity, nil
		}
		v, err := convertAssignValue(s, c.Value.Lit)
		if err != nil {
			return nil, err
		}
		return constPreservingZero(s, v), nil
	}
	if clause.Default != nil {
		if clause.Default.UseArg {
			return semiring.Identity, nil
		}
		v, err := convertAssignValue(s, clause.Default.Lit)
		if err != nil {
			return nil, err
		}
		return constPreservingZero(s, v), nil
	}
	return semiring.Identity, nil
}

// constPreservingZero wraps a constant mapping function so that
// f(0) = 0, as required of mapping functions (Section 3.2.2): "one
// cannot specify an assignment that returns a non-zero value when the
// input is 0".
func constPreservingZero(s semiring.Semiring, v semiring.Value) semiring.MappingFunc {
	zero := s.Zero()
	return func(in semiring.Value) semiring.Value {
		if s.Eq(in, zero) {
			return zero
		}
		return v
	}
}

// evalMapCond evaluates a mapping-clause CASE condition for a mapping.
func evalMapCond(c Cond, iterVar, mapping string) (bool, error) {
	switch cc := c.(type) {
	case CondCmp:
		name := ""
		lit := CmpOperand{}
		switch {
		case cc.L.Var == iterVar && cc.L.Attr == "":
			lit = cc.R
			name = mapping
		case cc.R.Var == iterVar && cc.R.Attr == "":
			lit = cc.L
			name = mapping
		default:
			return false, fmt.Errorf("proql: mapping CASE condition must compare $%s to a mapping name", iterVar)
		}
		want, ok := lit.Lit.(string)
		if !ok {
			return false, fmt.Errorf("proql: mapping CASE condition must compare against a mapping name")
		}
		switch cc.Op {
		case "=":
			return name == want, nil
		case "!=":
			return name != want, nil
		}
		return false, fmt.Errorf("proql: mapping CASE supports only = and !=")
	case CondAnd:
		l, err := evalMapCond(cc.L, iterVar, mapping)
		if err != nil || !l {
			return false, err
		}
		return evalMapCond(cc.R, iterVar, mapping)
	case CondOr:
		l, err := evalMapCond(cc.L, iterVar, mapping)
		if err != nil || l {
			return l, err
		}
		return evalMapCond(cc.R, iterVar, mapping)
	case CondNot:
		v, err := evalMapCond(cc.E, iterVar, mapping)
		return !v, err
	}
	return false, fmt.Errorf("proql: unsupported mapping CASE condition")
}
