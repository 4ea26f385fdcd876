package exchange

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/model"
)

// Test-only exports.

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
// and the provenance tables only. It keeps no engine state, so the system serves comparisons, not later writes.
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
