package semiring

import (
	"sort"
	"strconv"
	"strings"
)

// Mono is a monomial over provenance variables: a multiset of variable
// identifiers represented as exponents. Monomials are the "products of
// base tuples" in a provenance polynomial.
type Mono map[string]int

// monoEncode returns a canonical key for a monomial ("x^2·y").
func monoEncode(m Mono) string {
	if len(m) == 0 {
		return ""
	}
	vars := make([]string, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte('*')
		}
		sb.WriteString(v)
		if e := m[v]; e > 1 {
			sb.WriteByte('^')
			sb.WriteString(strconv.Itoa(e))
		}
	}
	return sb.String()
}

func monoMul(a, b Mono) Mono {
	out := make(Mono, len(a)+len(b))
	for v, e := range a {
		out[v] = e
	}
	for v, e := range b {
		out[v] += e
	}
	return out
}

// Poly is a provenance polynomial in N[X]: a finite map from monomials
// (by canonical encoding) to positive natural coefficients. Poly values
// are treated as immutable.
type Poly struct {
	terms map[string]polyTerm
}

type polyTerm struct {
	mono  Mono
	coeff int64
}

// ZeroPoly is the zero polynomial.
func ZeroPoly() Poly { return Poly{} }

// OnePoly is the constant polynomial 1.
func OnePoly() Poly { return ConstPoly(1) }

// ConstPoly is the constant polynomial c.
func ConstPoly(c int64) Poly {
	if c == 0 {
		return ZeroPoly()
	}
	return Poly{terms: map[string]polyTerm{"": {mono: Mono{}, coeff: c}}}
}

// VarPoly is the polynomial consisting of a single variable.
func VarPoly(id string) Poly {
	m := Mono{id: 1}
	return Poly{terms: map[string]polyTerm{monoEncode(m): {mono: m, coeff: 1}}}
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// Coeff returns the coefficient of the monomial, 0 if absent.
func (p Poly) Coeff(m Mono) int64 {
	if p.terms == nil {
		return 0
	}
	t, ok := p.terms[monoEncode(m)]
	if !ok {
		return 0
	}
	return t.coeff
}

// AddPoly returns p + q.
func AddPoly(p, q Poly) Poly {
	out := make(map[string]polyTerm, len(p.terms)+len(q.terms))
	for k, t := range p.terms {
		out[k] = t
	}
	for k, t := range q.terms {
		if prev, ok := out[k]; ok {
			out[k] = polyTerm{mono: prev.mono, coeff: prev.coeff + t.coeff}
		} else {
			out[k] = t
		}
	}
	return Poly{terms: out}
}

// MulPoly returns p · q.
func MulPoly(p, q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return ZeroPoly()
	}
	out := make(map[string]polyTerm, len(p.terms)*len(q.terms))
	for _, t1 := range p.terms {
		for _, t2 := range q.terms {
			m := monoMul(t1.mono, t2.mono)
			k := monoEncode(m)
			if prev, ok := out[k]; ok {
				out[k] = polyTerm{mono: prev.mono, coeff: prev.coeff + t1.coeff*t2.coeff}
			} else {
				out[k] = polyTerm{mono: m, coeff: t1.coeff * t2.coeff}
			}
		}
	}
	return Poly{terms: out}
}

// EqPoly reports equality of polynomials.
func EqPoly(p, q Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for k, t := range p.terms {
		u, ok := q.terms[k]
		if !ok || u.coeff != t.coeff {
			return false
		}
	}
	return true
}

// String renders the polynomial with monomials in canonical order.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	keys := make([]string, 0, len(p.terms))
	for k := range p.terms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(" + ")
		}
		t := p.terms[k]
		switch {
		case k == "":
			sb.WriteString(strconv.FormatInt(t.coeff, 10))
		case t.coeff == 1:
			sb.WriteString(k)
		default:
			sb.WriteString(strconv.FormatInt(t.coeff, 10))
			sb.WriteByte('*')
			sb.WriteString(k)
		}
	}
	return sb.String()
}

// EvalPoly evaluates p in the target semiring s under an assignment of
// semiring values to variables — the unique semiring homomorphism from
// N[X] extending the assignment (the universality property of
// provenance polynomials). Missing variables evaluate to s.Zero().
func EvalPoly(p Poly, s Semiring, assign map[string]Value) Value {
	acc := s.Zero()
	for _, t := range p.terms {
		term := s.One()
		for v, e := range t.mono {
			val, ok := assign[v]
			if !ok {
				val = s.Zero()
			}
			for i := 0; i < e; i++ {
				term = s.Times(term, val)
			}
		}
		for i := int64(0); i < t.coeff; i++ {
			acc = s.Plus(acc, term)
		}
	}
	return acc
}

// Polynomial is the provenance-polynomial semiring N[X] of Green,
// Karvounarakis, Tannen (PODS 2007) — the "most general formalism for
// tuple-based provenance" that the paper's provenance graphs encode.
// Materializing a view's annotations in N[X] lets any Table-1 score be
// recomputed later via EvalPoly without re-running the query
// (the paper's "generalized materialized view support").
//
// Value type: Poly. Not absorptive: like counting, it may diverge over
// cyclic graphs.
type Polynomial struct{}

// Name implements Semiring.
func (Polynomial) Name() string { return "POLYNOMIAL" }

// Zero implements Semiring.
func (Polynomial) Zero() Value { return ZeroPoly() }

// One implements Semiring.
func (Polynomial) One() Value { return OnePoly() }

// Plus implements Semiring.
func (Polynomial) Plus(a, b Value) Value { return AddPoly(a.(Poly), b.(Poly)) }

// Times implements Semiring.
func (Polynomial) Times(a, b Value) Value { return MulPoly(a.(Poly), b.(Poly)) }

// Eq implements Semiring.
func (Polynomial) Eq(a, b Value) bool { return EqPoly(a.(Poly), b.(Poly)) }

// Format implements Semiring.
func (Polynomial) Format(v Value) string { return v.(Poly).String() }

// Absorptive implements Semiring.
func (Polynomial) CycleSafe() bool { return false }
