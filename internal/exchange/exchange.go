// Package exchange implements the subset of the ORCHESTRA update-
// exchange engine the paper builds on (Sections 2 and 4.1): executing
// the schema-mapping Datalog program to materialize the canonical
// universal solution at every peer, while recording one provenance-
// relation row per derivation. It also implements the "superfluous
// provenance relation" optimization: projection mappings get virtual
// views instead of materialized tables.
package exchange

import (
	"fmt"
	"slices"

	"repro/internal/datalog"
	"repro/internal/model"
	"repro/internal/relstore"
)

// ProvTablePrefix prefixes provenance relation table names: mapping m1
// is stored in table "P_m1" (the paper's P^1).
const ProvTablePrefix = "P_"

// ProvRel describes the provenance relation of one mapping.
type ProvRel struct {
	Mapping *model.Mapping
	// Cols are the deduplicated key attributes of all source and
	// target atoms (Section 4.1).
	Cols []model.Column
	// Vars are the mapping variables corresponding to Cols.
	Vars []string
	// Virtual marks a superfluous provenance relation (projection
	// mapping): no table is materialized; rows are reconstructed from
	// the single source relation on demand.
	Virtual bool
	// TableName is the backing table ("P_<mapping>") when !Virtual,
	// and Table its ordinal (relstore.Table.Ord); -1 when Virtual.
	TableName string
	Table     int
	// Sources and Targets rebuild the keys of the mapping's body and
	// head atoms from one provenance row, in atom order.
	Sources, Targets []AtomKey
}

// AtomKey rebuilds one atom's tuple key from a provenance row of its
// mapping. Every key term of an atom is a provenance variable or a
// constant: key position i is the row's column Cols[i], or Consts[i]
// where Cols[i] is -1.
type AtomKey struct {
	Rel *model.Relation
	// Table is the ordinal of Rel's table (relstore.Table.Ord).
	Table  int
	Cols   []int
	Consts []model.Datum
}

// AppendDatums appends the atom's key datums under row to dst.
func (a *AtomKey) AppendDatums(dst []model.Datum, row model.Tuple) []model.Datum {
	for i, c := range a.Cols {
		if c < 0 {
			dst = append(dst, a.Consts[i])
		} else {
			dst = append(dst, row[c])
		}
	}
	return dst
}

// AppendKey appends the canonical encoding of the atom's key under row
// (model.EncodeDatums of its datums, a model.TupleRef's Key) to buf.
func (a *AtomKey) AppendKey(buf []byte, row model.Tuple) []byte {
	for i, c := range a.Cols {
		if c < 0 {
			buf = model.AppendDatum(buf, a.Consts[i])
		} else {
			buf = model.AppendDatum(buf, row[c])
		}
	}
	return buf
}

// Ref returns the reference of the atom's tuple under row.
func (a *AtomKey) Ref(row model.Tuple) model.TupleRef {
	var buf [64]byte
	return model.TupleRef{Rel: a.Rel.Name, Key: string(a.AppendKey(buf[:0], row))}
}

// Options configures a System.
type Options struct {
	// MaterializeAll disables the superfluous-relation optimization,
	// materializing a provenance table even for projection mappings.
	// Used by the storage-overhead ablation.
	MaterializeAll bool
}

// System is one CDSS replica: the schema, the backing database, and the
// provenance relations.
type System struct {
	Schema *model.Schema
	DB     *relstore.Database
	Prov   map[string]*ProvRel // by mapping name
	opts   Options

	// prog is the exchange program compiled once on first Run and
	// reused by every subsequent fixpoint over this system; hookPlans
	// maps each mapping to its provenance table and the binding-slot
	// positions of its provenance attributes and atom keys. eng is the
	// compiled engine driving it, created alongside prog; its predicate
	// journals, indexes, and age watermarks persist across runs so
	// RunDelta can seed a fixpoint from newly inserted rows alone.
	prog      *datalog.Program
	hookPlans map[string]hookPlan
	eng       *datalog.Engine
	// hookFull is the firing callback maintaining provenance tables,
	// the support index (reusing the engine-surfaced head keys), and —
	// during delta runs — the insertion report. hookLean is the
	// provenance-only variant installed for full runs when no support
	// index is alive, so exchange skips the head-surfacing machinery
	// it would not consume.
	hookFull datalog.HeadHook
	hookLean datalog.SlotHook

	// pending buffers, per public relation, the local-contribution rows
	// InsertLocal actually stored since the last run — the Δ seed of
	// the next RunDelta. deltaReady reports that the engine state still
	// mirrors the tables; deletions keep it alive by repairing the
	// journals from the deletion report (repairJournals), so only
	// errors — a failed run or journal repair — clear it and force the
	// next run to a full fixpoint.
	// collect, when non-nil, is the report the hooks append insertion
	// effects to (set only during delta runs).
	pending    map[string][]model.Tuple
	deltaReady bool
	collect    *InsertionReport
	// deadRows buffers, per predicate (local or public table name), the
	// encoded keys of rows deletion propagation removed from storage but
	// not yet from the persistent journals. DeleteLocal defers the
	// journal repair here — recording a key is O(1), keeping deletions
	// at their support-index cost — and the next RunDelta flushes the
	// batch into datalog.Program.ApplyDeletions before seeding, so the
	// repair's O(affected journals) cost is amortized into the run that
	// actually needs coherent journals.
	deadRows map[string][]string

	// support is the persistent ref→derivation index DeleteLocal
	// propagates over. It is populated by the Run hooks as exchange
	// enumerates derivations; nil means it must be rebuilt from the
	// provenance tables on the next deletion (after WarmAttach, or when
	// ref-plan compilation was not possible for this schema).
	support *supportIndex

	// Stats from the last Run.
	LastIterations  int
	LastDerivations int

	// inProbes is the per-relation reverse-edge probe index built once
	// at NewSystem (it depends only on the schema and the provenance
	// layout, never on the data). Caching it — and pre-building the
	// secondary indexes it probes — keeps the ASR query path free of
	// writes: a concurrent reader never triggers index construction.
	inProbes map[string][]IncomingProbe
}

// hookPlan is the precompiled provenance recipe for one mapping: which
// table receives the rows (nil for virtual provenance relations),
// which engine slots hold the provenance attributes, and — for the
// support index — each source/target atom's key columns resolved to
// slots, so the per-firing hook does no map or name lookups beyond one
// rule-ID fetch.
type hookPlan struct {
	table *relstore.Table
	slots []int
	// atoms lists the mapping's body atoms then head atoms; nSources
	// is the body count. Nil when ref plans could not be compiled.
	atoms    []atomPlan
	nSources int
}

// atomPlan builds one atom's TupleRef from a firing's slot buffer.
type atomPlan struct {
	rel  string
	cols []datalog.KeyCol
}

// NewSystem creates the storage layout for a schema: one table per
// public relation (keyed), one per local-contribution relation, and one
// provenance table per non-superfluous mapping (keyed on all columns,
// since a provenance row is identified by the whole derivation).
func NewSystem(schema *model.Schema, opts Options) (*System, error) {
	return newSystemOn(relstore.NewDatabase(), schema, opts)
}

// ensureTable returns the named table, creating it when absent. A
// pre-existing table (a durable database recovered from disk) must
// match the expected layout.
func ensureTable(db *relstore.Database, schema *relstore.TableSchema) error {
	t, ok := db.Table(schema.Name)
	if !ok {
		_, err := db.CreateTable(schema)
		return err
	}
	if len(t.Schema.Columns) != len(schema.Columns) || len(t.Schema.Key) != len(schema.Key) {
		return fmt.Errorf("exchange: recovered table %q has %d columns / %d key attrs, schema wants %d / %d",
			schema.Name, len(t.Schema.Columns), len(t.Schema.Key), len(schema.Columns), len(schema.Key))
	}
	for i, k := range schema.Key {
		if t.Schema.Key[i] != k {
			return fmt.Errorf("exchange: recovered table %q key mismatch at position %d", schema.Name, i)
		}
	}
	return nil
}

// newSystemOn builds the system over an existing database, creating
// whatever tables it does not already hold — the shared path of
// NewSystem (fresh in-memory database) and OpenDurable (database
// recovered from a checkpoint + log replay).
func newSystemOn(db *relstore.Database, schema *model.Schema, opts Options) (*System, error) {
	sys := &System{Schema: schema, DB: db, Prov: make(map[string]*ProvRel), opts: opts, support: newSupportIndex()}
	for _, r := range schema.Relations() {
		if err := ensureTable(db, relstore.SchemaOf(r)); err != nil {
			return nil, err
		}
	}
	for _, m := range schema.Mappings() {
		pr, err := sys.provRelFor(m)
		if err != nil {
			return nil, err
		}
		sys.Prov[m.Name] = pr
		pr.Table = -1
		if !pr.Virtual {
			key := make([]int, len(pr.Cols))
			for i := range key {
				key[i] = i
			}
			if err := ensureTable(db, &relstore.TableSchema{
				Name:    pr.TableName,
				Columns: pr.Cols,
				Key:     key,
			}); err != nil {
				return nil, err
			}
			pr.Table = db.MustTable(pr.TableName).Ord()
		}
	}
	// Build the reverse-edge probe index now and pre-ensure every
	// secondary index it probes: query-time EnsureIndex was a hidden
	// write on the read-only ASR path, racing concurrent queries.
	probes, err := sys.IncomingProbes()
	if err != nil {
		return nil, err
	}
	sys.inProbes = probes
	for _, ps := range probes {
		for i := range ps {
			p := &ps[i]
			if !p.Prov.Virtual && len(p.Cols) > 0 {
				db.MustTable(p.Prov.TableName).EnsureIndex(p.Cols)
			}
		}
	}
	return sys, nil
}

// Probes returns the per-relation reverse-edge probe index computed at
// NewSystem. The map and its slices are shared and must not be
// mutated; every probed secondary index was pre-built, so probing is
// read-only.
func (s *System) Probes() map[string][]IncomingProbe { return s.inProbes }

// Snapshot returns a read-only view of the system pinned to the
// current storage epoch, plus a release function. Reads through the
// view (table lookups, provenance rows, leaf checks, probes) observe
// exactly the state committed when Snapshot was called, no matter
// what Run/RunDelta/DeleteLocal commit afterwards. The view carries
// only the fields the read path consults — schema, provenance layout,
// probe index, options — all immutable after NewSystem; the writer's
// journals, delta buffers, and support index are deliberately absent
// (copying them here would race with a concurrent commit mutating
// them). Mutating entry points on the view fail (its database rejects
// writes). Callers must invoke the release function when done;
// holding it only delays reclamation of deleted rows.
func (s *System) Snapshot() (*System, func()) {
	view, release, _ := s.snapView(s.DB.Snapshot(), nil)
	return view, release
}

// SnapshotAt is Snapshot pinned at a retained historical epoch (see
// relstore.Database.SnapshotAt): reads through the view observe the
// state as committed by that epoch. Epochs outside the retention
// window return *relstore.ErrEpochOutOfRange.
func (s *System) SnapshotAt(epoch uint64) (*System, func(), error) {
	snap, err := s.DB.SnapshotAt(epoch)
	return s.snapView(snap, err)
}

func (s *System) snapView(snap *relstore.Database, err error) (*System, func(), error) {
	if err != nil {
		return nil, nil, err
	}
	view := &System{
		Schema:   s.Schema,
		DB:       snap,
		Prov:     s.Prov,
		opts:     s.opts,
		inProbes: s.inProbes,
	}
	return view, snap.Close, nil
}

func (s *System) provRelFor(m *model.Mapping) (*ProvRel, error) {
	cols, vars, err := m.ProvenanceAttrs(s.Schema)
	if err != nil {
		return nil, err
	}
	pr := &ProvRel{
		Mapping:   m,
		Cols:      cols,
		Vars:      vars,
		TableName: ProvTablePrefix + m.Name,
	}
	if !s.opts.MaterializeAll && m.IsProjection() {
		// A single-source mapping's provenance rows are a projection
		// of the source relation: the source key attributes determine
		// the whole row (target keys are copies or constants).
		pr.Virtual = s.virtualizable(m, vars)
	}
	for _, a := range m.Body {
		ak, err := s.atomKey(pr, a)
		if err != nil {
			return nil, err
		}
		pr.Sources = append(pr.Sources, ak)
	}
	for _, a := range m.Head {
		ak, err := s.atomKey(pr, a)
		if err != nil {
			return nil, err
		}
		pr.Targets = append(pr.Targets, ak)
	}
	return pr, nil
}

// atomKey compiles how one atom of pr's mapping rebuilds its key from
// a provenance row. The atom's relation table must exist.
func (s *System) atomKey(pr *ProvRel, a model.Atom) (AtomKey, error) {
	r, ok := s.Schema.Relation(a.Rel)
	if !ok {
		return AtomKey{}, fmt.Errorf("exchange: unknown relation %q", a.Rel)
	}
	t, ok := s.DB.Table(a.Rel)
	if !ok {
		return AtomKey{}, fmt.Errorf("exchange: no table for %q", a.Rel)
	}
	ak := AtomKey{Rel: r, Table: t.Ord(), Cols: make([]int, len(r.Key)), Consts: make([]model.Datum, len(r.Key))}
	for i, k := range r.Key {
		term := a.Args[k]
		if term.IsConst {
			ak.Cols[i], ak.Consts[i] = -1, term.Const
			continue
		}
		c := slices.Index(pr.Vars, term.Var)
		if c < 0 {
			return AtomKey{}, fmt.Errorf("exchange: mapping %s key var %q not in provenance row", pr.Mapping.Name, term.Var)
		}
		ak.Cols[i] = c
	}
	return ak, nil
}

// virtualizable checks that every provenance attribute of the
// projection mapping is available from the single body atom, so the
// provenance relation can be a view over the source.
func (s *System) virtualizable(m *model.Mapping, vars []string) bool {
	body := m.Body[0]
	bodyVars := make(map[string]bool)
	for _, t := range body.Args {
		if !t.IsConst && t.Var != "_" {
			bodyVars[t.Var] = true
		}
	}
	for _, v := range vars {
		if !bodyVars[v] {
			return false
		}
	}
	return true
}

// InsertLocal adds rows to a relation's local-contribution table. Rows
// actually stored (not primary-key duplicates) join the pending delta
// buffer, so the next RunDelta propagates exactly them.
func (s *System) InsertLocal(rel string, rows ...model.Tuple) error {
	r, ok := s.Schema.Relation(rel)
	if !ok {
		return fmt.Errorf("exchange: unknown relation %q", rel)
	}
	t, ok := s.DB.Table(r.LocalName())
	if !ok {
		return fmt.Errorf("exchange: no local table for %q", rel)
	}
	// One batch: a multi-row insert commits as a single epoch, so a
	// concurrent snapshot sees all of the rows or none of them.
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	for _, row := range rows {
		inserted, err := t.Insert(row)
		if err != nil {
			return err
		}
		if inserted {
			if s.pending == nil {
				s.pending = make(map[string][]model.Tuple)
			}
			s.pending[rel] = append(s.pending[rel], row)
		}
	}
	return nil
}

// LocalCopyRuleID names the copy rule L_R of relation R.
func LocalCopyRuleID(rel string) string { return "L_" + rel }

// Rules builds the full exchange program: local copy rules L_R plus all
// mapping rules.
func (s *System) Rules() []datalog.Rule {
	var rules []datalog.Rule
	for _, r := range s.Schema.PublicRelations() {
		args := make([]model.Term, r.Arity())
		for i := range args {
			args[i] = model.V(fmt.Sprintf("v%d", i))
		}
		rules = append(rules, datalog.NewRule(
			LocalCopyRuleID(r.Name),
			model.Atom{Rel: r.Name, Args: args},
			model.Atom{Rel: r.LocalName(), Args: args},
		))
	}
	for _, m := range s.Schema.Mappings() {
		rules = append(rules, datalog.RuleFromMapping(m))
	}
	return rules
}

// Run executes the exchange program to fixpoint, materializing every
// public relation and populating the provenance tables. The program is
// compiled once per system and reused by subsequent runs (incremental
// maintenance re-running the fixpoint pays no recompilation cost). A
// successful run leaves the engine's journals mirroring the tables,
// so the next batch of InsertLocal rows can be propagated by RunDelta
// instead of a full re-fixpoint.
func (s *System) Run() error {
	// The whole fixpoint — public-relation materialization plus all
	// provenance rows — commits as one storage epoch: snapshots taken
	// while it runs observe the pre-run state only.
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	if err := s.ensureCompiled(); err != nil {
		return err
	}
	s.installHooks()
	s.deltaReady = false
	if err := s.eng.RunProgram(s.prog); err != nil {
		return err
	}
	s.LastIterations = s.eng.Iterations
	s.LastDerivations = s.eng.Derivations
	s.deltaReady = true
	s.pending = nil  // a full run consumed everything the tables hold
	s.deadRows = nil // journals reseeded from the tables; nothing stale
	return nil
}

// InsertionReport summarizes one RunDelta: what the delta propagation
// added, so consumers (asr.Index.ApplyInsertions) can patch instead of
// rebuilding.
type InsertionReport struct {
	// Full reports that RunDelta fell back to a full exchange — first
	// run, or engine state invalidated by an earlier run error or a
	// failed journal repair (DeleteLocal repairs the journals and keeps
	// delta runs alive). The insertion list below is empty then;
	// cache holders must invalidate rather than patch.
	Full bool

	// Iterations and Derivations are the engine stats of this run; for
	// delta runs Derivations counts only the new derivations.
	Iterations  int
	Derivations int

	// InsertedDerivations lists the new derivations as (mapping,
	// provenance-relation row) pairs, mirroring DeletedDerivation.
	InsertedDerivations []InsertedDerivation
}

// InsertedDerivation identifies one new derivation: the mapping and its
// provenance-relation row.
type InsertedDerivation struct {
	Mapping string
	Row     model.Tuple
}

// RunDelta propagates the pending InsertLocal rows incrementally: the
// persistent engine state (fact journals, hash indexes, age
// watermarks) is kept alive between runs, and the semi-naive rounds
// are seeded from the pending local-delta rows only, so the fixpoint
// enumerates exactly the new derivations — inserting k rows into an
// exchanged system costs O(affected derivations), not O(database).
// The hooks extend the provenance tables and the deletion-support
// index exactly as a full run would, and the returned report lists
// everything added. Interleaved deletions do not break the chain of
// delta runs: DeleteLocal repairs the persistent journals from its
// deletion report, so a RunDelta after it still seeds from the pending
// rows alone. When no valid persistent state exists (first run, or an
// earlier error invalidated it) RunDelta falls back to a full Run and
// reports Full.
func (s *System) RunDelta() (*InsertionReport, error) {
	// One epoch per delta run (batches nest across the full-run
	// fallback): concurrent snapshots see the pre-delta state until
	// the run commits, then all of its effects at once.
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	if !s.deltaReady || s.prog == nil || !s.prog.StateValid() {
		if err := s.Run(); err != nil {
			return nil, err
		}
		return &InsertionReport{Full: true, Iterations: s.LastIterations, Derivations: s.LastDerivations}, nil
	}
	if err := s.flushDeadRows(); err != nil {
		// Journal repair failed (the datalog layer invalidated its
		// state); reseed with a full run.
		if err := s.Run(); err != nil {
			return nil, err
		}
		return &InsertionReport{Full: true, Iterations: s.LastIterations, Derivations: s.LastDerivations}, nil
	}
	report := &InsertionReport{}
	if len(s.pending) == 0 {
		return report, nil
	}
	delta := make(map[string][]model.Tuple, len(s.pending))
	for rel, rows := range s.pending {
		r, ok := s.Schema.Relation(rel)
		if !ok {
			return nil, fmt.Errorf("exchange: unknown relation %q in pending delta", rel)
		}
		delta[r.LocalName()] = append(delta[r.LocalName()], rows...)
	}
	// Delta runs always take the full hook, not the lean one: even with
	// no support index, the report's InsertedDerivations (virtual
	// mappings' included) feed asr.Index maintenance.
	s.eng.HookHeads, s.eng.Hook = s.hookFull, nil
	s.collect = report
	err := s.eng.RunProgramDelta(s.prog, delta)
	s.collect = nil
	if err != nil {
		s.deltaReady = false
		return nil, err
	}
	s.pending = nil
	s.LastIterations = s.eng.Iterations
	s.LastDerivations = s.eng.Derivations
	report.Iterations = s.eng.Iterations
	report.Derivations = s.eng.Derivations
	return report, nil
}

// DeltaReady reports whether the persistent engine state currently
// mirrors the backing tables, i.e. whether the next RunDelta will run
// incrementally instead of falling back to a full fixpoint. It stays
// true across DeleteLocal (which repairs the journals from its
// report); only run errors and failed journal repairs clear it.
func (s *System) DeltaReady() bool {
	return s.deltaReady && s.prog != nil && s.prog.StateValid()
}

// invalidateDelta marks the persistent engine state stale (a deletion
// failed part way, or its report could not be fed to journals that
// were already stale or refused the repair); the next RunDelta falls
// back to a full fixpoint.
func (s *System) invalidateDelta() {
	s.deltaReady = false
	s.deadRows = nil // a full reseed supersedes any deferred repair
	if s.prog != nil {
		s.prog.InvalidateState()
	}
}

// ensureCompiled compiles the exchange program, the per-mapping hook
// plans, and the persistent engine with its firing hook, once per
// System.
func (s *System) ensureCompiled() error {
	if s.prog != nil {
		return nil
	}
	prog, err := datalog.Compile(s.DB, s.Rules())
	if err != nil {
		return err
	}
	plans := make(map[string]hookPlan, len(s.Prov))
	refPlansOK := true
	for name, pr := range s.Prov {
		slots, err := prog.VarSlots(name, pr.Vars)
		if err != nil {
			return err
		}
		hp := hookPlan{slots: slots}
		if !pr.Virtual {
			hp.table = s.DB.MustTable(pr.TableName)
		}
		if atoms, n, err := s.compileRefPlans(prog, name, pr); err == nil {
			hp.atoms, hp.nSources = atoms, n
		} else {
			refPlansOK = false
		}
		plans[name] = hp
	}
	if !refPlansOK {
		// Some atom's key terms cannot be recovered from firings
		// (e.g. a wildcard key term), so the support index cannot
		// be hook-maintained. Drop it: DeleteLocal rebuilds from
		// the provenance rows and surfaces the defect as an error
		// there, exactly as the whole-graph walk did.
		for name, hp := range plans {
			hp.atoms, hp.nSources = nil, 0
			plans[name] = hp
		}
		s.support = nil
	}
	s.prog, s.hookPlans = prog, plans

	s.eng = datalog.NewEngine(s.DB)
	var arena model.TupleArena
	var keyBuf []byte
	var idBuf []int32
	s.hookFull = func(rule *datalog.Rule, _ []string, slots []model.Datum, heads []datalog.HeadInsert) {
		hp, ok := s.hookPlans[rule.ID]
		if !ok {
			return // local copy rule: no provenance
		}
		row := arena.Alloc(len(hp.slots))
		for i, si := range hp.slots {
			row[i] = slots[si]
		}
		// Set semantics on the all-column key keep reruns idempotent
		// (the compiled engine itself never re-enumerates a
		// derivation within one run); only genuinely new derivations
		// enter the support index.
		fresh := false
		if hp.table != nil {
			inserted, err := hp.table.Insert(row)
			if err != nil {
				panic(fmt.Sprintf("exchange: provenance insert: %v", err))
			}
			fresh = inserted
		} else if s.support != nil {
			fresh = s.support.markVirtual(rule.ID, row)
		} else if s.collect != nil {
			// Virtual mapping with no support index: delta rounds never
			// re-enumerate a derivation across the system's lifetime,
			// so every delta firing is new.
			fresh = true
		}
		if fresh && s.collect != nil {
			s.collect.InsertedDerivations = append(s.collect.InsertedDerivations,
				InsertedDerivation{Mapping: rule.ID, Row: row})
		}
		if !fresh || s.support == nil || hp.atoms == nil {
			return
		}
		if cap(idBuf) < len(hp.atoms) {
			idBuf = make([]int32, len(hp.atoms))
		}
		sup := s.support
		ids := idBuf[:len(hp.atoms)]
		for i := 0; i < hp.nSources; i++ {
			ap := &hp.atoms[i]
			keyBuf = keyBuf[:0]
			for _, c := range ap.cols {
				if c.IsConst {
					keyBuf = model.AppendDatum(keyBuf, c.Const)
				} else {
					keyBuf = model.AppendDatum(keyBuf, slots[c.Slot])
				}
			}
			ids[i] = sup.tupleID(ap.rel, keyBuf)
		}
		// Target atoms are the rule's heads in mapping order: reuse the
		// primary-key encoding the engine's head insert already
		// computed instead of re-encoding the key terms from slots.
		for j := range heads {
			ids[hp.nSources+j] = sup.tupleID(heads[j].Pred, heads[j].EncKey)
		}
		sup.add(rule.ID, hp.table == nil, row, ids, hp.nSources)
	}
	// The lean hook only materializes provenance rows; it is installed
	// for full runs with no support index alive, where the engine's
	// head-surfacing pass would feed nothing.
	var leanArena model.TupleArena
	s.hookLean = func(rule *datalog.Rule, _ []string, slots []model.Datum) {
		hp, ok := s.hookPlans[rule.ID]
		if !ok || hp.table == nil {
			return
		}
		row := leanArena.Alloc(len(hp.slots))
		for i, si := range hp.slots {
			row[i] = slots[si]
		}
		if _, err := hp.table.Insert(row); err != nil {
			panic(fmt.Sprintf("exchange: provenance insert: %v", err))
		}
	}
	return nil
}

// installHooks picks the firing callback for a full run: the head-
// surfacing hook when a support index consumes the surfaced keys, the
// lean provenance-only hook otherwise.
func (s *System) installHooks() {
	if s.support != nil {
		s.eng.HookHeads, s.eng.Hook = s.hookFull, nil
	} else {
		s.eng.HookHeads, s.eng.Hook = nil, s.hookLean
	}
}

// compileRefPlans resolves, for one mapping, each body and head atom's
// key columns into the compiled rule's slot numbering, so the exchange
// hook can build the support index's TupleRefs straight from a
// firing's slot buffer.
func (s *System) compileRefPlans(prog *datalog.Program, name string, pr *ProvRel) ([]atomPlan, int, error) {
	m := pr.Mapping
	atoms := make([]atomPlan, 0, len(m.Body)+len(m.Head))
	addAtom := func(a model.Atom) error {
		r, ok := s.Schema.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("exchange: unknown relation %q", a.Rel)
		}
		cols, err := prog.AtomKeySlots(name, a, r.Key)
		if err != nil {
			return err
		}
		atoms = append(atoms, atomPlan{rel: a.Rel, cols: cols})
		return nil
	}
	for _, a := range m.Body {
		if err := addAtom(a); err != nil {
			return nil, 0, err
		}
	}
	for _, a := range m.Head {
		if err := addAtom(a); err != nil {
			return nil, 0, err
		}
	}
	return atoms, len(m.Body), nil
}

// ProvRows returns the provenance rows of a mapping, reconstructing
// them from the source relation for virtual provenance relations.
func (s *System) ProvRows(mappingName string) ([]model.Tuple, error) {
	pr, ok := s.Prov[mappingName]
	if !ok {
		return nil, fmt.Errorf("exchange: unknown mapping %q", mappingName)
	}
	if !pr.Virtual {
		return s.DB.MustTable(pr.TableName).Rows(), nil
	}
	return s.virtualProvRows(pr)
}

// virtualProvRows projects the provenance attributes out of the source
// relation of a superfluous mapping. A source tuple yields a derivation
// only if the (possibly filtering) body atom matches, i.e. constant
// positions agree and repeated variables are consistent.
func (s *System) virtualProvRows(pr *ProvRel) ([]model.Tuple, error) {
	body := pr.Mapping.Body[0]
	t, ok := s.DB.Table(body.Rel)
	if !ok {
		return nil, fmt.Errorf("exchange: no table for %q", body.Rel)
	}
	var out []model.Tuple
	t.Iterate(func(row model.Tuple) bool {
		binding := make(map[string]model.Datum, len(body.Args))
		for k, term := range body.Args {
			if term.IsConst {
				if !model.Equal(row[k], term.Const) {
					return true
				}
				continue
			}
			if term.Var == "_" {
				continue
			}
			if prev, bound := binding[term.Var]; bound {
				if !model.Equal(prev, row[k]) {
					return true
				}
				continue
			}
			binding[term.Var] = row[k]
		}
		prow := make(model.Tuple, len(pr.Vars))
		for i, v := range pr.Vars {
			prow[i] = binding[v]
		}
		out = append(out, prow)
		return true
	})
	return out, nil
}

// ProvRowCount counts stored provenance rows across all materialized
// provenance tables — the storage-overhead metric.
func (s *System) ProvRowCount() int {
	total := 0
	for _, pr := range s.Prov {
		if !pr.Virtual {
			total += s.DB.MustTable(pr.TableName).Len()
		}
	}
	return total
}

// AtomRefs reconstructs, for one provenance row of a mapping, the
// references of all source and target tuples related by that
// derivation node.
func (s *System) AtomRefs(pr *ProvRel, row model.Tuple) (sources, targets []model.TupleRef) {
	sources = make([]model.TupleRef, len(pr.Sources))
	for i := range pr.Sources {
		sources[i] = pr.Sources[i].Ref(row)
	}
	targets = make([]model.TupleRef, len(pr.Targets))
	for i := range pr.Targets {
		targets[i] = pr.Targets[i].Ref(row)
	}
	return sources, targets
}
