package ds

// DSU is a disjoint-set forest with union by size and path halving.
type DSU struct {
	parent []int32
	size   []int32
}

// NewDSU returns a forest of n singleton sets {0}..{n-1}.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets holding a and b; it reports whether a merge
// happened (false when already joined).
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return true
}
