package topo

import (
	"fmt"

	"tofumd/internal/vec"
)

// MapMode selects how MPI ranks are placed on nodes.
type MapMode int

const (
	// MapTopo preserves physical adjacency: the rank grid is the node grid
	// refined by the per-node block, so spatially adjacent sub-boxes land on
	// the same or directly connected nodes (the paper's "topo map",
	// section 3.5.3).
	MapTopo MapMode = iota
	// MapLinear assigns ranks to nodes in plain rank-id order, ignoring
	// topology. It exists as the ablation baseline: it inflates the average
	// hop count of neighbor communication.
	MapLinear
)

// String names the mapping mode.
func (m MapMode) String() string {
	switch m {
	case MapTopo:
		return "topo"
	case MapLinear:
		return "linear"
	default:
		return fmt.Sprintf("MapMode(%d)", int(m))
	}
}

// RankMap places a 3D grid of MPI ranks onto the nodes of a Torus3D.
// RanksPerNode ranks share each node (4 on Fugaku, one per CMG/NUMA domain,
// section 3.2), arranged as a Block (2x2x1 by default) so that intra-node
// neighbors cost zero network hops.
type RankMap struct {
	Torus *Torus3D
	// Grid is the 3D rank-grid shape; Grid.Prod() ranks total.
	Grid vec.I3
	// Block is the per-node rank block shape; Block.Prod() == RanksPerNode.
	Block vec.I3
	Mode  MapMode
}

// DefaultBlock is the 2x2x1 intra-node rank arrangement used with 4 ranks
// per node.
var DefaultBlock = vec.I3{X: 2, Y: 2, Z: 1}

// NewRankMap builds a rank map over the torus. The rank grid is the node
// grid multiplied component-wise by block.
func NewRankMap(t *Torus3D, block vec.I3, mode MapMode) (*RankMap, error) {
	if block.X <= 0 || block.Y <= 0 || block.Z <= 0 {
		return nil, fmt.Errorf("topo: invalid rank block %+v", block)
	}
	grid := vec.I3{
		X: t.Shape.X * block.X,
		Y: t.Shape.Y * block.Y,
		Z: t.Shape.Z * block.Z,
	}
	return &RankMap{Torus: t, Grid: grid, Block: block, Mode: mode}, nil
}

// Ranks returns the total rank count.
func (m *RankMap) Ranks() int { return m.Grid.Prod() }

// RanksPerNode returns the number of ranks sharing one node.
func (m *RankMap) RanksPerNode() int { return m.Block.Prod() }

// RankID maps a rank-grid coordinate to its linear rank id (x fastest),
// wrapping periodically.
func (m *RankMap) RankID(c vec.I3) int {
	c = m.WrapRank(c)
	return c.X + m.Grid.X*(c.Y+m.Grid.Y*c.Z)
}

// RankCoord inverts RankID.
func (m *RankMap) RankCoord(id int) vec.I3 {
	x := id % m.Grid.X
	y := (id / m.Grid.X) % m.Grid.Y
	z := id / (m.Grid.X * m.Grid.Y)
	return vec.I3{X: x, Y: y, Z: z}
}

// WrapRank applies periodic wrapping in the rank grid.
func (m *RankMap) WrapRank(c vec.I3) vec.I3 {
	return vec.I3{
		X: mod(c.X, m.Grid.X),
		Y: mod(c.Y, m.Grid.Y),
		Z: mod(c.Z, m.Grid.Z),
	}
}

// NodeOf returns the node id hosting rank id, and the local slot index of
// the rank within the node (0..RanksPerNode-1). The slot determines the
// default TNI binding in the coarse-grained scheme.
func (m *RankMap) NodeOf(id int) (node, slot int) {
	switch m.Mode {
	case MapLinear:
		per := m.RanksPerNode()
		return id / per, id % per
	default:
		c := m.RankCoord(id)
		nodeCoord := vec.I3{X: c.X / m.Block.X, Y: c.Y / m.Block.Y, Z: c.Z / m.Block.Z}
		local := vec.I3{X: c.X % m.Block.X, Y: c.Y % m.Block.Y, Z: c.Z % m.Block.Z}
		slot = local.X + m.Block.X*(local.Y+m.Block.Y*local.Z)
		return m.Torus.ID(nodeCoord), slot
	}
}

// Hops returns the network hop count between the nodes hosting ranks a and
// b; 0 when they share a node.
func (m *RankMap) Hops(a, b int) int {
	na, _ := m.NodeOf(a)
	nb, _ := m.NodeOf(b)
	if na == nb {
		return 0
	}
	return m.Torus.Hops(m.Torus.CoordOf(na), m.Torus.CoordOf(nb))
}

// NeighborRank returns the rank id at offset d from rank id in the periodic
// rank grid.
func (m *RankMap) NeighborRank(id int, d vec.I3) int {
	return m.RankID(m.RankCoord(id).Add(d))
}

// AvgNeighborHops computes the average hop count from every rank to its 26
// nearest rank-grid neighbors. It quantifies the benefit of MapTopo over
// MapLinear.
func (m *RankMap) AvgNeighborHops() float64 {
	total := 0
	count := 0
	n := m.Ranks()
	for id := 0; id < n; id++ {
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					nb := m.NeighborRank(id, vec.I3{X: dx, Y: dy, Z: dz})
					total += m.Hops(id, nb)
					count++
				}
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
