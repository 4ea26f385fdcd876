package provgraph

// IsCyclic reports whether g contains a derivation cycle (a tuple
// transitively deriving itself).
func IsCyclic(g *Graph) bool {
	_, acyclic := g.topoOrder()
	return !acyclic
}
