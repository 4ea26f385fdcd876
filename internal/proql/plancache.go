package proql

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/exchange"
	"repro/internal/model"
)

// planCache caches the relational backend's plan templates — the
// unfolded rules with one physical plan per rule whose WHERE literals
// are parameter slots — per query shape. Keys are normalized query
// shapes — structure and binding pattern, with WHERE literals masked to
// their literalClass — so repeated queries differing only in constants
// hit, and a hit binds the query's literals into the cached plans
// instead of planning. The asr backend plans from the query syntax
// alone and never consults the cache. Entries are validated against the
// relstore definition version and the mapping count, so dropping or
// (re)creating tables (Materialize, schema edits) invalidates without
// an explicit hook; row churn keeps entries alive, since a template
// names tables rather than holding rows.
//
// The cache is shared by every concurrent query on the engine; mu
// guards the entry map and the hit/miss counters. Entries themselves
// are immutable once stored, so the lock covers only map access, never
// planning work. At most maxPlanCacheEntries entries are kept: variable
// names are part of a shape, so a client can mint shapes without end.
//
// Entries are epoch-correct by construction, so AS OF queries share
// them with live ones: an entry holds an unfolded rule set and plans
// that name tables, never row data. Every execution runs the plans
// against the snapshot it pinned (live or SnapshotAt), so a plan cached
// by a live query produces epoch-accurate answers for a time-travel
// query and vice versa. The version check is about the plan *space*
// (tables appearing or disappearing), not row visibility: a relational
// execution checks the version of the snapshot it pinned.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planCacheEntry
	hits    int
	misses  int
}

// maxPlanCacheEntries bounds the plan cache; storing into a full cache
// evicts an arbitrary entry.
const maxPlanCacheEntries = 256

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*planCacheEntry{}}
}

type planCacheEntry struct {
	dbVersion uint64
	mappings  int
	tpl       *relTemplate
}

// PlanCacheStats reports plan-cache effectiveness, surfaced by
// EXPLAIN.
type PlanCacheStats struct {
	Entries int
	Hits    int
	Misses  int
}

// PlanCacheStats returns the engine's cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	c := e.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses}
}

// cache returns the engine's plan cache. NewEngine pre-creates it;
// the fallback covers engines built as bare literals in tests.
func (e *Engine) cache() *planCache {
	if e.plans == nil {
		e.plans = newPlanCache()
	}
	return e.plans
}

// cacheLookup returns the entry under key if it was recorded at
// definition version dbVersion and the current mapping count.
func (e *Engine) cacheLookup(key string, dbVersion uint64) (*planCacheEntry, bool) {
	c := e.cache()
	mappings := e.Sys.Schema.NumMappings()
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if ok && ent.dbVersion == dbVersion && ent.mappings == mappings {
		c.hits++
		return ent, true
	}
	if ok {
		// Stale: a table was created or dropped since the entry was
		// recorded (e.g. ASR materialization changed the plan space).
		delete(c.entries, key)
	}
	c.misses++
	return nil, false
}

func (e *Engine) cacheStore(key string, dbVersion uint64, ent *planCacheEntry) {
	c := e.cache()
	ent.dbVersion = dbVersion
	ent.mappings = e.Sys.Schema.NumMappings()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= maxPlanCacheEntries {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = ent
}

// relationalTemplate returns the plan template of q's shape for
// execution on sys: from the cache when recorded at sys's definition
// version, otherwise unfolded (CompileUnfold), built and stored.
// Failures, ErrNotRelational included, are not cached.
func (e *Engine) relationalTemplate(sys *exchange.System, q *Query) (*relTemplate, error) {
	key := templateKey(q, e.RewriteRules != nil)
	version := sys.DB.Version()
	if ent, ok := e.cacheLookup(key, version); ok {
		return ent.tpl, nil
	}
	comp, err := CompileUnfold(e.Sys, q)
	if err != nil {
		return nil, err
	}
	t, err := e.buildTemplate(sys, comp, q)
	if err != nil {
		return nil, err
	}
	e.cacheStore(key, version, &planCacheEntry{tpl: t})
	return t, nil
}

// templateKey is the plan-cache key: the normalized query shape — path
// structure, variable names, condition operators and attribute accesses
// — with each WHERE literal masked to '?' and its literalClass (which
// decides where it is pushed), plus what else shapes the plans: the EVALUATE flag and the
// leaf ASSIGNING conditions, whose attributes column pruning keeps
// (pruneSpec), and whether rules are ASR-rewritten.
func templateKey(q *Query, rewrite bool) string {
	var sb strings.Builder
	writeShape(&sb, q)
	if q.Evaluate != "" {
		sb.WriteString("|evaluate")
		if q.LeafAssign != nil {
			for _, c := range q.LeafAssign.Cases {
				sb.WriteByte(':')
				writeCondShape(&sb, c.Cond)
			}
		}
	}
	if rewrite {
		sb.WriteString("|asr")
	}
	return sb.String()
}

func writeShape(sb *strings.Builder, q *Query) {
	sb.WriteString("for:")
	for i, p := range q.Projection.For {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(p.String())
	}
	if q.Projection.Where != nil {
		sb.WriteString("|where:")
		writeCondShape(sb, q.Projection.Where)
	}
	if len(q.Projection.Include) > 0 {
		sb.WriteString("|include:")
		for i, p := range q.Projection.Include {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(p.String())
		}
	}
	sb.WriteString("|return:")
	sb.WriteString(strings.Join(q.Projection.Return, ","))
}

// writeCondShape, appendWhereLits and slotWhere visit a condition's
// literals in the same order: left operand before right, left
// subcondition before right.
func writeCondShape(sb *strings.Builder, c Cond) {
	switch cc := c.(type) {
	case CondCmp:
		writeOperandShape(sb, cc.L)
		sb.WriteString(cc.Op)
		writeOperandShape(sb, cc.R)
	case CondIn:
		sb.WriteByte('$')
		sb.WriteString(cc.Var)
		sb.WriteString(" in ")
		sb.WriteString(cc.Rel)
	case CondAnd:
		sb.WriteByte('(')
		writeCondShape(sb, cc.L)
		sb.WriteString(" AND ")
		writeCondShape(sb, cc.R)
		sb.WriteByte(')')
	case CondOr:
		sb.WriteByte('(')
		writeCondShape(sb, cc.L)
		sb.WriteString(" OR ")
		writeCondShape(sb, cc.R)
		sb.WriteByte(')')
	case CondNot:
		sb.WriteString("(NOT ")
		writeCondShape(sb, cc.E)
		sb.WriteByte(')')
	case CondPath:
		sb.WriteString(cc.Path.String())
	default:
		sb.WriteString(strconv.Quote(c.condString()))
	}
}

// writeOperandShape keeps the binding pattern (variable vs literal,
// attribute access) and masks the literal value to its literalClass.
func writeOperandShape(sb *strings.Builder, o CmpOperand) {
	if o.Var != "" {
		sb.WriteByte('$')
		sb.WriteString(o.Var)
		if o.Attr != "" {
			sb.WriteByte('.')
			sb.WriteString(o.Attr)
		}
		return
	}
	sb.WriteByte('?')
	sb.WriteByte(literalClass(o.Lit))
}

// appendWhereLits appends the literals of a WHERE condition to dst.
func appendWhereLits(dst []model.Datum, c Cond) []model.Datum {
	switch cc := c.(type) {
	case CondCmp:
		if cc.L.Var == "" {
			dst = append(dst, cc.L.Lit)
		}
		if cc.R.Var == "" {
			dst = append(dst, cc.R.Lit)
		}
	case CondAnd:
		dst = appendWhereLits(appendWhereLits(dst, cc.L), cc.R)
	case CondOr:
		dst = appendWhereLits(appendWhereLits(dst, cc.L), cc.R)
	case CondNot:
		dst = appendWhereLits(dst, cc.E)
	}
	return dst
}

// slotWhere copies a WHERE condition with each literal replaced by its
// whereLit position, counting from *n.
func slotWhere(c Cond, n *int) Cond {
	switch cc := c.(type) {
	case CondCmp:
		for _, o := range []*CmpOperand{&cc.L, &cc.R} {
			if o.Var == "" {
				o.Lit = whereLit(*n)
				*n++
			}
		}
		return cc
	case CondAnd:
		l := slotWhere(cc.L, n)
		return CondAnd{L: l, R: slotWhere(cc.R, n)}
	case CondOr:
		l := slotWhere(cc.L, n)
		return CondOr{L: l, R: slotWhere(cc.R, n)}
	case CondNot:
		return CondNot{E: slotWhere(cc.E, n)}
	}
	return c
}
