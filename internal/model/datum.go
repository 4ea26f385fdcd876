// Package model defines the shared data vocabulary for the provenance
// system: datums (scalar values), tuples, relation schemas, keys, and
// schema mappings. Every other package — the relational store, the
// Datalog engine, update exchange, the provenance graph, and ProQL —
// speaks in these types.
package model

import (
	"fmt"
	"strconv"
	"strings"
)

// Datum is a scalar database value. The supported dynamic types are
// int64, float64, string, and bool. nil represents SQL NULL (used only
// in ASR padding rows produced by outer joins).
type Datum any

// DatumType identifies the dynamic type of a Datum.
type DatumType int

// Datum types. TypeNull is the type of a nil Datum.
const (
	TypeNull DatumType = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
)

func (t DatumType) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	}
	return fmt.Sprintf("DatumType(%d)", int(t))
}

// TypeOf reports the dynamic type of d. It panics on unsupported types,
// which indicates a programming error rather than bad data.
func TypeOf(d Datum) DatumType {
	switch d.(type) {
	case nil:
		return TypeNull
	case int64:
		return TypeInt
	case float64:
		return TypeFloat
	case string:
		return TypeString
	case bool:
		return TypeBool
	}
	panic(fmt.Sprintf("model: unsupported datum type %T", d))
}

// Equal reports whether two datums are equal. Datums of different
// dynamic types are never equal (no numeric coercion); NULL equals NULL
// for the purposes of key encoding and map lookups.
func Equal(a, b Datum) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ta, tb := TypeOf(a), TypeOf(b)
	if ta != tb {
		return false
	}
	return a == b
}

// Compare orders two datums. NULL sorts before everything; across types
// the order is null < int < float < string < bool, which gives a total
// order for index structures without implicit coercion.
func Compare(a, b Datum) int {
	ta, tb := TypeOf(a), TypeOf(b)
	if ta != tb {
		return int(ta) - int(tb)
	}
	switch ta {
	case TypeNull:
		return 0
	case TypeInt:
		x, y := a.(int64), b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case TypeFloat:
		x, y := a.(float64), b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case TypeString:
		return strings.Compare(a.(string), b.(string))
	case TypeBool:
		x, y := a.(bool), b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		}
		return 1
	}
	panic("model: unreachable")
}

// EncodeDatum appends a canonical, injective string encoding of d to sb.
// The encoding is used for hash-index keys and tuple identities; it
// tags each value with its type so int64(1) and "1" never collide.
func EncodeDatum(sb *strings.Builder, d Datum) {
	switch v := d.(type) {
	case nil:
		sb.WriteByte('n')
	case int64:
		sb.WriteByte('i')
		sb.WriteString(strconv.FormatInt(v, 10))
	case float64:
		sb.WriteByte('f')
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case string:
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(len(v)))
		sb.WriteByte(':')
		sb.WriteString(v)
	case bool:
		if v {
			sb.WriteByte('T')
		} else {
			sb.WriteByte('F')
		}
	default:
		panic(fmt.Sprintf("model: unsupported datum type %T", d))
	}
	sb.WriteByte('|')
}

// AppendDatum appends the same canonical encoding EncodeDatum produces
// to buf and returns the extended slice. Hash-probe hot paths (the
// compiled Datalog engine) use it with a reused []byte key buffer so a
// probe costs no builder allocation.
func AppendDatum(buf []byte, d Datum) []byte {
	switch v := d.(type) {
	case nil:
		buf = append(buf, 'n')
	case int64:
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, v, 10)
	case float64:
		buf = append(buf, 'f')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	case string:
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(v)), 10)
		buf = append(buf, ':')
		buf = append(buf, v...)
	case bool:
		if v {
			buf = append(buf, 'T')
		} else {
			buf = append(buf, 'F')
		}
	default:
		panic(fmt.Sprintf("model: unsupported datum type %T", d))
	}
	return append(buf, '|')
}

// AppendDatums appends the canonical encoding of a datum sequence
// (EncodeDatums) to buf and returns the extended slice.
func AppendDatums(buf []byte, ds []Datum) []byte {
	for _, d := range ds {
		buf = AppendDatum(buf, d)
	}
	return buf
}

// EncodeDatums returns the canonical encoding of a datum sequence. It
// encodes into a stack buffer, so a short sequence costs one allocation:
// the string.
func EncodeDatums(ds []Datum) string {
	var buf [64]byte
	return string(AppendDatums(buf[:0], ds))
}

// DecodeDatums parses a canonical encoding produced by EncodeDatums
// back into the datum sequence. The encoding is self-delimiting (every
// datum ends with '|', strings carry a length prefix), so round-
// tripping is exact; malformed input returns an error.
func DecodeDatums(enc string) ([]Datum, error) {
	var out []Datum
	for len(enc) > 0 {
		tag := enc[0]
		enc = enc[1:]
		switch tag {
		case 'n', 'T', 'F':
			if len(enc) == 0 || enc[0] != '|' {
				return nil, fmt.Errorf("model: truncated datum encoding")
			}
			enc = enc[1:]
			switch tag {
			case 'n':
				out = append(out, nil)
			case 'T':
				out = append(out, true)
			case 'F':
				out = append(out, false)
			}
		case 'i', 'f':
			sep := strings.IndexByte(enc, '|')
			if sep < 0 {
				return nil, fmt.Errorf("model: truncated datum encoding")
			}
			body := enc[:sep]
			enc = enc[sep+1:]
			if tag == 'i' {
				v, err := strconv.ParseInt(body, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("model: bad int encoding %q", body)
				}
				out = append(out, v)
			} else {
				v, err := strconv.ParseFloat(body, 64)
				if err != nil {
					return nil, fmt.Errorf("model: bad float encoding %q", body)
				}
				out = append(out, v)
			}
		case 's':
			colon := strings.IndexByte(enc, ':')
			if colon < 0 {
				return nil, fmt.Errorf("model: truncated string encoding")
			}
			n, err := strconv.Atoi(enc[:colon])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("model: bad string length %q", enc[:colon])
			}
			rest := enc[colon+1:]
			if len(rest) < n+1 || rest[n] != '|' {
				return nil, fmt.Errorf("model: truncated string encoding")
			}
			out = append(out, rest[:n])
			enc = rest[n+1:]
		default:
			return nil, fmt.Errorf("model: unknown datum tag %q", tag)
		}
	}
	return out, nil
}

// FormatDatum renders d for human consumption (query output, DOT labels).
func FormatDatum(d Datum) string {
	switch v := d.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case string:
		return v
	case bool:
		return strconv.FormatBool(v)
	}
	return fmt.Sprintf("%v", d)
}
