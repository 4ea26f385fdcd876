package proql

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/proql/physplan"
)

// planCache caches per-query-shape planning work: the physplan join
// order and cost estimates for the asr backend, and the
// relational backend's plan template — the unfolded rules with one
// physical plan per rule whose WHERE literals are parameter slots. Keys
// are normalized query shapes — structure and binding pattern, with
// WHERE literals masked — so repeated queries differing only in
// constants hit, and a relational hit binds the query's literals into
// the cached plans instead of planning. Entries are validated against
// the relstore definition version and the mapping count, so dropping or
// (re)creating tables (Materialize, schema edits) invalidates without
// an explicit hook; row churn keeps entries alive, since planning
// decisions depend only on coarse statistics and correctness never
// does.
//
// The cache is shared by every concurrent query on the engine; mu
// guards the entry map and the hit/miss counters. Entries themselves
// are immutable once stored, so the lock covers only map access, never
// planning work. At most maxPlanCacheEntries entries are kept: variable
// names are part of a shape, so a client can mint shapes without end.
//
// Entries are epoch-correct by construction, so AS OF queries share
// them with live ones: an entry holds only shape-level artifacts — an
// unfolded rule set, plans that name tables rather than hold them, or
// replayable join-order decisions — never row data. Every execution
// runs the plans against the snapshot it pinned (live or SnapshotAt),
// so a plan cached by a live query produces epoch-accurate answers for
// a time-travel query and vice versa. The version check is about the
// plan *space* (tables appearing or disappearing), not row visibility:
// a relational execution checks the version of the snapshot it pinned.
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
	// dec replays the physplan planner (asr backend); tpl is the
	// relational backend's plan template. Exactly one is set, according
	// to the backend segment of the key.
	dec    physplan.Decisions
	hasDec bool
	tpl    *relTemplate
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

// cachedDecisions returns the replayable physplan planner decisions
// for a query's shape, if cached and still valid.
func (e *Engine) cachedDecisions(q *Query) (physplan.Decisions, bool) {
	ent, ok := e.cacheLookup("asr\x00"+shapeKey(q), e.Sys.DB.Version())
	if !ok || !ent.hasDec {
		return physplan.Decisions{}, false
	}
	return ent.dec, true
}

// storeDecisions records freshly made planner decisions.
func (e *Engine) storeDecisions(q *Query, dec physplan.Decisions) {
	e.cacheStore("asr\x00"+shapeKey(q), e.Sys.DB.Version(), &planCacheEntry{dec: dec, hasDec: true})
}

// relationalTemplate returns the plan template of q's shape for
// execution on sys: from the cache when recorded at sys's definition
// version, otherwise unfolded (CompileUnfold), built and stored.
// Failures, ErrNotRelational included, are not cached.
func (e *Engine) relationalTemplate(sys *exchange.System, q *Query) (*relTemplate, error) {
	key := templateKey(q, e.RewriteRules != nil)
	version := sys.DB.Version()
	if ent, ok := e.cacheLookup(key, version); ok && ent.tpl != nil {
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

// shapeKey renders the normalized shape of a query: path structure,
// variable names, condition operators and attribute accesses — but
// WHERE literals masked to '?', so queries differing only in constants
// share a key. Unfolding and physplan ordering never read literal
// values (constants enter at operator-build time), which is what makes
// the masking sound.
func shapeKey(q *Query) string {
	var sb strings.Builder
	writeShape(&sb, q, false)
	return sb.String()
}

// templateKey is the relational plan-cache key: the shape with each
// WHERE literal's literalClass after its '?' (which decides where it is
// pushed), plus what else shapes the plans: the EVALUATE flag and the
// leaf ASSIGNING conditions, whose attributes column pruning keeps
// (pruneSpec), and whether rules are ASR-rewritten.
func templateKey(q *Query, rewrite bool) string {
	var sb strings.Builder
	sb.WriteString("relational\x00")
	writeShape(&sb, q, true)
	if q.Evaluate != "" {
		sb.WriteString("|evaluate")
		if q.LeafAssign != nil {
			for _, c := range q.LeafAssign.Cases {
				sb.WriteByte(':')
				writeCondShape(&sb, c.Cond, false)
			}
		}
	}
	if rewrite {
		sb.WriteString("|asr")
	}
	return sb.String()
}

func writeShape(sb *strings.Builder, q *Query, classes bool) {
	sb.WriteString("for:")
	for i, p := range q.Projection.For {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(p.String())
	}
	if q.Projection.Where != nil {
		sb.WriteString("|where:")
		writeCondShape(sb, q.Projection.Where, classes)
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
func writeCondShape(sb *strings.Builder, c Cond, classes bool) {
	switch cc := c.(type) {
	case CondCmp:
		writeOperandShape(sb, cc.L, classes)
		sb.WriteString(cc.Op)
		writeOperandShape(sb, cc.R, classes)
	case CondIn:
		sb.WriteByte('$')
		sb.WriteString(cc.Var)
		sb.WriteString(" in ")
		sb.WriteString(cc.Rel)
	case CondAnd:
		sb.WriteByte('(')
		writeCondShape(sb, cc.L, classes)
		sb.WriteString(" AND ")
		writeCondShape(sb, cc.R, classes)
		sb.WriteByte(')')
	case CondOr:
		sb.WriteByte('(')
		writeCondShape(sb, cc.L, classes)
		sb.WriteString(" OR ")
		writeCondShape(sb, cc.R, classes)
		sb.WriteByte(')')
	case CondNot:
		sb.WriteString("(NOT ")
		writeCondShape(sb, cc.E, classes)
		sb.WriteByte(')')
	case CondPath:
		sb.WriteString(cc.Path.String())
	default:
		sb.WriteString(strconv.Quote(c.condString()))
	}
}

// writeOperandShape keeps the binding pattern (variable vs literal,
// attribute access) and masks the literal value, optionally to its
// literalClass.
func writeOperandShape(sb *strings.Builder, o CmpOperand, classes bool) {
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
	if classes {
		sb.WriteByte(literalClass(o.Lit))
	}
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
