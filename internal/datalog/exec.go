package datalog

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/relstore"
)

// SlotHook is the compiled engine's firing callback, invoked exactly
// once per distinct rule firing (a distinct combination of body tuples
// satisfying the rule — the Δ-partitioned executor never re-enumerates
// a derivation, unlike EngineLegacy). vars names the variable stored in
// each slot. slots is a reused buffer: hooks must copy any datums they
// keep. Precompute positions with Program.VarSlots instead of scanning
// vars per firing.
type SlotHook func(rule *Rule, vars []string, slots []model.Datum)

// Engine is the compiled semi-naive Datalog engine: rules are lowered
// once into slot-based join programs (compile.go) and evaluated to
// fixpoint over flat binding arrays, probing incremental hash indexes
// over age-partitioned fact journals.
type Engine struct {
	DB   *relstore.Database
	Hook SlotHook

	// Stats from the last run.
	Iterations  int
	Derivations int
}

// NewEngine builds a compiled engine over db.
func NewEngine(db *relstore.Database) *Engine {
	return &Engine{DB: db}
}

// Run compiles the rules and evaluates them to fixpoint. Callers that
// evaluate the same rule set repeatedly should Compile once and use
// RunProgram.
func (e *Engine) Run(rules []Rule) error {
	p, err := Compile(e.DB, rules)
	if err != nil {
		return err
	}
	return e.RunProgram(p)
}

// checkProgram validates the program/engine pairing before a run.
func (e *Engine) checkProgram(p *Program) error {
	if p.db != e.DB {
		return fmt.Errorf("datalog: program was compiled against a different database")
	}
	return nil
}

// RunProgram evaluates a compiled program to fixpoint. All facts
// already present in the database are the first round's Δ; the program
// may be re-run after the database changes (state is reseeded from the
// tables every call). A successful run leaves the journals, indexes,
// and watermarks mirroring the tables exactly (StateValid), so a
// subsequent RunProgramDelta can extend the fixpoint from newly
// inserted facts alone.
func (e *Engine) RunProgram(p *Program) error {
	if err := e.checkProgram(p); err != nil {
		return err
	}
	p.stateValid = false
	e.Iterations, e.Derivations = 0, 0
	for _, ps := range p.preds {
		ps.reset()
	}
	if err := e.fixpoint(p); err != nil {
		return err
	}
	p.stateValid = true
	return nil
}

// RunProgramDelta extends a previous run's fixpoint from newly
// inserted base facts alone: the delta rows (per predicate name) seed
// the first semi-naive round as Δ while everything derived before
// stays OLD, so the rounds enumerate exactly the derivations involving
// at least one new fact — inserting k rows costs O(affected
// derivations), not O(database). Requirements: the program's state
// must be valid (a successful full run with no table mutations since —
// see StateValid/InvalidateState), and the delta rows must already be
// stored in their backing tables but absent from the journals (i.e.
// freshly inserted, deduplicated by the caller). Hooks fire only for
// the new derivations. On error the state is invalidated and the next
// run must be a full RunProgram.
func (e *Engine) RunProgramDelta(p *Program, delta map[string][]model.Tuple) error {
	if err := e.checkProgram(p); err != nil {
		return err
	}
	if !p.stateValid {
		return fmt.Errorf("datalog: delta run requires valid persistent state (run RunProgram first)")
	}
	e.Iterations, e.Derivations = 0, 0
	for name, rows := range delta {
		id, ok := p.predID[name]
		if !ok {
			p.stateValid = false
			return fmt.Errorf("datalog: delta predicate %q not in program", name)
		}
		ps := p.preds[id]
		if ps.pos != nil {
			// Keep the key→position map hot (see journalAppend): the next
			// deletion repair stays O(deleted rows).
			var buf []byte
			for _, row := range rows {
				buf = appendCols(buf[:0], row, ps.keyCols)
				ps.pos[string(buf)] = int32(len(ps.rows))
				ps.rows = append(ps.rows, row)
			}
			ps.posBuilt = len(ps.rows)
		} else {
			ps.rows = append(ps.rows, rows...)
		}
		ps.deltaEnd = len(ps.rows)
	}
	if err := e.fixpoint(p); err != nil {
		p.stateValid = false
		return err
	}
	return nil
}

// fixpoint runs semi-naive rounds until no predicate has Δ rows. On
// entry rows[oldEnd:deltaEnd] of each predicate is the seed Δ.
func (e *Engine) fixpoint(p *Program) error {
	x := &executor{eng: e, prog: p, slots: make([]model.Datum, p.maxSlots)}
	for {
		work := false
		for _, ps := range p.preds {
			ps.extendIndexes()
			if ps.deltaEnd > ps.oldEnd {
				work = true
			}
		}
		if !work {
			return nil
		}
		e.Iterations++
		if err := x.round(); err != nil {
			return err
		}
		for _, ps := range p.preds {
			ps.oldEnd = ps.deltaEnd
			ps.deltaEnd = len(ps.rows)
		}
	}
}

// reset reseeds a predicate's journal from its backing table and clears
// the indexes and position map; everything stored becomes the first
// round's Δ.
func (ps *predState) reset() {
	ps.rows = ps.rows[:0]
	ps.table.Iterate(func(row model.Tuple) bool {
		ps.rows = append(ps.rows, row)
		return true
	})
	ps.oldEnd = 0
	ps.deltaEnd = len(ps.rows)
	ps.pos = nil
	ps.posBuilt = 0
	ps.clearIndexes()
}

func (ps *predState) clearIndexes() {
	for _, ix := range ps.indexes {
		ix.buckets = make(map[string][]int32, len(ix.buckets))
		ix.built = 0
	}
}

// extendIndexes brings every probe index up to the joinable watermark.
func (ps *predState) extendIndexes() {
	var buf []byte
	for _, ix := range ps.indexes {
		for i := ix.built; i < ps.deltaEnd; i++ {
			buf = appendCols(buf[:0], ps.rows[i], ix.cols)
			ix.buckets[string(buf)] = append(ix.buckets[string(buf)], int32(i))
		}
		ix.built = ps.deltaEnd
	}
}

func appendCols(buf []byte, row model.Tuple, cols []int) []byte {
	for _, c := range cols {
		buf = model.AppendDatum(buf, row[c])
	}
	return buf
}

// executor runs one program's rounds.
type executor struct {
	eng  *Engine
	prog *Program
	// slots is the binding buffer the join recursion fills; keyBuf the
	// probe-encoding scratch (consumed before any deeper recursion).
	slots  []model.Datum
	keyBuf []byte
	// arena carves the head rows the firing passes materialize.
	arena model.TupleArena
	// posBuf is the key-encoding scratch for journalAppend's position
	// map maintenance.
	posBuf []byte
}

// round runs every Δ-specialized program over its predicate's Δ rows,
// applying each firing as it completes.
func (x *executor) round() error {
	for _, cr := range x.prog.rules {
		for pi := range cr.progs {
			dp := &cr.progs[pi]
			for _, row := range dp.pred.rows[dp.pred.oldEnd:dp.pred.deltaEnd] {
				if !matchSeed(&dp.seed, row, x.slots) {
					continue
				}
				if err := x.joinFrom(cr, dp, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// apply records one distinct firing: bump stats, invoke the hook, and
// insert the instantiated heads (new rows join the journal's NEW
// region, invisible until the round ends).
func (x *executor) apply(cr *compiledRule) error {
	slots := x.slots
	x.eng.Derivations++
	if x.eng.Hook != nil {
		x.eng.Hook(&cr.rule, cr.slotVars, slots)
	}
	for hi := range cr.heads {
		h := &cr.heads[hi]
		row := x.arena.Alloc(len(h.cols))
		for i, c := range h.cols {
			if c.isConst {
				row[i] = c.konst
			} else {
				row[i] = slots[c.slot]
			}
		}
		inserted, err := h.pred.table.Insert(row)
		if err != nil {
			return err
		}
		if inserted {
			x.journalAppend(h.pred, row)
		}
	}
	return nil
}

// journalAppend appends a freshly inserted head row to the predicate's
// journal. Once the predicate's key→position map exists — built by the
// first deletion repair (repair.go) — it is maintained here on the
// insert path, so every later repair stays O(deleted rows) instead of
// re-scanning the journal; until then the insert hot path pays only
// this nil check.
func (x *executor) journalAppend(ps *predState, row model.Tuple) {
	if ps.pos != nil {
		x.posBuf = appendCols(x.posBuf[:0], row, ps.keyCols)
		ps.pos[string(x.posBuf)] = int32(len(ps.rows))
		ps.rows = append(ps.rows, row)
		ps.posBuilt = len(ps.rows)
		return
	}
	ps.rows = append(ps.rows, row)
}

func matchSeed(s *seedSpec, row model.Tuple, slots []model.Datum) bool {
	for _, c := range s.consts {
		if !model.Equal(row[c.col], c.val) {
			return false
		}
	}
	for _, b := range s.binds {
		slots[b.slot] = row[b.col]
	}
	for _, q := range s.eqs {
		if !model.Equal(row[q.col], slots[q.slot]) {
			return false
		}
	}
	return true
}

// joinFrom extends the binding through the steps from depth on,
// applying every completed match. Binds need no undo: each step's
// checks reference only slots bound by earlier steps (or its own row),
// so stale values in later slots are always overwritten before being
// read.
func (x *executor) joinFrom(cr *compiledRule, dp *deltaProg, depth int) error {
	if depth == len(dp.steps) {
		return x.apply(cr)
	}
	st := &dp.steps[depth]
	ps := st.pred
	limit := ps.deltaEnd
	if st.part == partOld {
		limit = ps.oldEnd
	}
	if limit == 0 {
		return nil
	}
	if st.index != nil {
		buf := x.keyBuf[:0]
		for _, pr := range st.probe {
			if pr.isConst {
				buf = model.AppendDatum(buf, pr.konst)
			} else {
				buf = model.AppendDatum(buf, x.slots[pr.slot])
			}
		}
		x.keyBuf = buf
		// Bucket positions are ascending, so the partition bound is a
		// cutoff.
		for _, idx := range st.index.buckets[string(buf)] {
			if int(idx) >= limit {
				break
			}
			if err := x.stepRow(cr, dp, depth, st, ps.rows[idx]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range ps.rows[:limit] {
		if err := x.stepRow(cr, dp, depth, st, row); err != nil {
			return err
		}
	}
	return nil
}

func (x *executor) stepRow(cr *compiledRule, dp *deltaProg, depth int, st *joinStep, row model.Tuple) error {
	for _, b := range st.binds {
		x.slots[b.slot] = row[b.col]
	}
	for _, q := range st.checks {
		if !model.Equal(row[q.col], x.slots[q.slot]) {
			return nil
		}
	}
	return x.joinFrom(cr, dp, depth+1)
}
