package exchange

import (
	"fmt"
	"sort"

	"repro/internal/datalog"
	"repro/internal/model"
)

// Test-only exports: white-box views of the support index so the
// differential tests can compare an incrementally maintained index
// against a freshly built one, and the churn test can bound pool
// growth.

// SupportSignature renders the live derivation entries of the support
// index — mapping, provenance row, source refs, target refs — as one
// sorted, comparable string. Empty when no index is present.
func (s *System) SupportSignature() string {
	if s.support == nil {
		return ""
	}
	ix := s.support
	var lines []string
	for di := range ix.derivs {
		d := &ix.derivs[di]
		if d.dead {
			continue
		}
		line := d.mapping + "|" + model.EncodeDatums(d.row) + "|S:"
		for _, t := range ix.sources(d) {
			line += ix.refs[t].Rel + "#" + ix.refs[t].Key + ";"
		}
		line += "|T:"
		for _, t := range ix.targets(d) {
			line += ix.refs[t].Rel + "#" + ix.refs[t].Key + ";"
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// HasSupportIndex reports whether the system currently holds a support
// index.
func (s *System) HasSupportIndex() bool { return s.support != nil }

// EnsureSupport forces the lazy support-index rebuild from the
// provenance tables (the recovery differential compares a recovered
// system's rebuilt index against a never-crashed one's hook-maintained
// index).
func (s *System) EnsureSupport() error { return s.ensureSupport() }

// SupportPoolSizes reports the support index's pool lengths and free-
// list sizes: total derivation slots, live derivations, edge-pool
// length, free edges, atom-pool length. Zeroes when no index exists.
func (s *System) SupportPoolSizes() (derivSlots, live, edges, freeEdges, atomPool int) {
	ix := s.support
	if ix == nil {
		return 0, 0, 0, 0, 0
	}
	return len(ix.derivs), ix.live(), len(ix.edgeDeriv), len(ix.edgeFree), len(ix.atomPool)
}

// JournalsMirrorTables flushes any deferred journal repairs and then
// verifies the compiled engine's persistent journals hold exactly the
// rows of their backing tables — the invariant deletion repair must
// preserve. Only meaningful when no pending inserts are buffered
// (freshly inserted rows reach the journals at the next delta run);
// nil when the program has not been compiled yet.
func (s *System) JournalsMirrorTables() error {
	if s.prog == nil {
		return nil
	}
	if err := s.flushDeadRows(); err != nil {
		return err
	}
	return s.prog.JournalMirrorsTables()
}

// RunInterpreted is the oracle of the compiled exchange: Run on
// datalog's interpreting engine, materializing the public relations
// and the provenance tables only. It keeps no support index and no
// engine state, so the system serves comparisons, not later writes.
func (s *System) RunInterpreted() error {
	s.DB.BeginBatch()
	defer s.DB.EndBatch()
	eng := datalog.NewEngineLegacy(s.DB)
	eng.Hook = func(rule *datalog.Rule, binding datalog.Binding) {
		pr, ok := s.Prov[rule.ID]
		if !ok || pr.Virtual {
			return
		}
		row := make(model.Tuple, len(pr.Vars))
		for i, v := range pr.Vars {
			row[i] = binding[v]
		}
		// The all-column key absorbs the interpreter's repeated
		// enumerations of one derivation.
		if _, err := s.DB.MustTable(pr.TableName).Insert(row); err != nil {
			panic(fmt.Sprintf("exchange: provenance insert: %v", err))
		}
	}
	return eng.Run(s.Rules())
}
