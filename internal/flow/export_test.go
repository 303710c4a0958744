package flow

// RandomGridMCF exposes the FBP-shaped instance generator to the external
// test package, which certifies solutions with internal/certify (an
// importer of this package).
var RandomGridMCF = randomGridMCF

// PerturbFlow moves delta units of flow onto arc id after a solve,
// keeping its capacity, so tests can hand a corrupted solution to an
// independent checker.
func (g *MinCostFlow) PerturbFlow(id ArcID, delta float64) {
	g.flow[id] += delta
}
