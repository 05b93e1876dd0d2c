package netlist

// Cut returns T(C): the number of nets with at least one pin inside the
// group of cells members and at least one outside.
//
// This is the plain brute-force reference, O(cells + nets + Σ_{c∈C}
// deg(c) · |e|) with its own membership marks, that tests compare the
// incremental tracker in package group and the generators' planted
// cuts against; the engine never calls it.
func (nl *Netlist) Cut(members []CellID) int {
	in := make([]bool, nl.NumCells())
	for _, c := range members {
		in[c] = true
	}
	seen := make([]bool, nl.NumNets())
	cut := 0
	for _, c := range members {
		for _, n := range nl.CellPins(c) {
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, other := range nl.NetPins(n) {
				if !in[other] {
					cut++
					break
				}
			}
		}
	}
	return cut
}

// PinsIn returns the total pin count of the group's cells: Σ_{c∈C} deg(c).
// Divided by |C| this is the paper's A_C.
func (nl *Netlist) PinsIn(members []CellID) int {
	pins := 0
	for _, c := range members {
		pins += nl.CellDegree(c)
	}
	return pins
}
