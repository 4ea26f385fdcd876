package datalog

import "repro/internal/model"

// BindingFromSlots materializes a compiled hook's slot buffer as the
// interpreter's Binding map, so the differentials can key firings of
// both engines alike.
func BindingFromSlots(vars []string, slots []model.Datum) Binding {
	b := make(Binding, len(vars))
	for i, v := range vars {
		b[v] = slots[i]
	}
	return b
}
