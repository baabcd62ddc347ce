package topo

import (
	"fmt"

	"github.com/memcentric/mcdla/internal/units"
)

// Params fixes the interconnect's link technology: N links per node at B
// GB/s per direction. Defaults follow the DGX running example of §III-B.
type Params struct {
	Devices int
	LinksN  int
	LinkBW  units.Bandwidth
}

// DefaultParams returns the DGX-1V running example: 8 devices, N=6 links of
// B=25 GB/s.
func DefaultParams() Params {
	return Params{Devices: 8, LinksN: 6, LinkBW: units.GBps(25)}
}

// Validate reports whether the structural builders can lay out p: the
// Figure 5/7 ring constructions are specified for 8 devices with N=6 links;
// the collective and system models generalize, but the structural
// topologies are the paper's.
func (p Params) Validate() error {
	if p.Devices != 8 {
		return fmt.Errorf("topo: builders require 8 devices, got %d", p.Devices)
	}
	if p.LinksN != 6 {
		return fmt.Errorf("topo: builders require N=6 links, got %d", p.LinksN)
	}
	if p.LinkBW <= 0 {
		return fmt.Errorf("topo: link bandwidth must be positive")
	}
	return nil
}

// validate panics on parameters Validate rejects; callers taking outside
// input check Validate first.
func (p Params) validate() {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
}

// dgxRings are three Hamiltonian cycles over the 8 GPUs whose union is the
// cube-mesh of Figure 5 (black, gray, and dotted rings), consuming exactly
// six link endpoints per GPU.
var dgxRings = [3][8]int{
	{0, 1, 2, 3, 7, 6, 5, 4},
	{0, 2, 1, 5, 7, 4, 6, 3},
	{0, 6, 2, 4, 1, 7, 3, 5},
}

func devices(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{ID: i, Kind: DeviceNode, Name: fmt.Sprintf("D%d", i)}
	}
	return out
}

func appendRingLinks(t *Topology, ring []int, bw units.Bandwidth) {
	for i := range ring {
		t.Links = append(t.Links, Link{A: ring[i], B: ring[(i+1)%len(ring)], BW: bw})
	}
	t.Rings = append(t.Rings, Ring{Nodes: append([]int(nil), ring...)})
}

// CubeMesh builds the DC-DLA device-side interconnect of Figure 5: eight
// devices, three rings, six link endpoints per device.
func CubeMesh(p Params) *Topology {
	p.validate()
	t := &Topology{Name: "cube-mesh", Nodes: devices(p.Devices)}
	for _, r := range dgxRings {
		appendRingLinks(t, r[:], p.LinkBW)
	}
	return t
}

// memoryNodes appends M0..M7 after the devices and returns their IDs.
func memoryNodes(t *Topology, n int) []int {
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		id := len(t.Nodes)
		t.Nodes = append(t.Nodes, Node{ID: id, Kind: MemoryNode, Name: fmt.Sprintf("M%d", i)})
		ids[i] = id
	}
	return ids
}

// MCDLAStar builds the Figure 7(a) derivative design: two of the cube-mesh
// rings survive among the devices; the third ring's links are rearranged so
// each device reaches a dedicated memory-node with two links, and the ring
// that threads through all 16 nodes visits every memory-node twice (the
// paper's 24-hop ring). The light-gray 4th ring over memory-nodes only is
// also present (and useless — footnote 2).
func MCDLAStar(p Params) *Topology {
	p.validate()
	t := &Topology{Name: "mc-dla-star", Nodes: devices(p.Devices)}
	mem := memoryNodes(t, p.Devices)
	// Two balanced device rings (8 hops each).
	appendRingLinks(t, dgxRings[0][:], p.LinkBW)
	appendRingLinks(t, dgxRings[1][:], p.LinkBW)
	// The rearranged third ring: …→Mn→Dn→Mn→Mn-1→… visits each memory node
	// twice: D and M alternate with a doubled M visit (24 hops).
	long := make([]int, 0, 3*p.Devices)
	for d := 0; d < p.Devices; d++ {
		long = append(long, mem[d], d, mem[d])
	}
	// Wire links for the long ring: Dn↔Mn twice (the two star links) and
	// Mn↔Mn+1 once.
	for d := 0; d < p.Devices; d++ {
		t.Links = append(t.Links,
			Link{A: d, B: mem[d], BW: p.LinkBW},
			Link{A: d, B: mem[d], BW: p.LinkBW},
			Link{A: mem[d], B: mem[(d+1)%p.Devices], BW: p.LinkBW},
		)
	}
	t.Rings = append(t.Rings, Ring{Nodes: long})
	// The 4th, memory-only ring of footnote 2.
	t.Rings = append(t.Rings, Ring{Nodes: append([]int(nil), mem...)})
	for d := 0; d < p.Devices; d++ {
		t.Links = append(t.Links, Link{A: mem[d], B: mem[(d+1)%p.Devices], BW: p.LinkBW})
	}
	return t
}

// MCDLAFolded builds the Figure 7(b) design point: the memory-nodes folded
// inward, yielding the paper's three rings of 8, 12, and 20 hops. The
// hand-drawn figure does not pin the exact adjacency; this construction
// honors the published hop counts, the N=6 endpoint budget per device, and
// the property that every device still reaches memory-nodes over dedicated
// links.
func MCDLAFolded(p Params) *Topology {
	p.validate()
	t := &Topology{Name: "mc-dla-folded", Nodes: devices(p.Devices)}
	mem := memoryNodes(t, p.Devices)
	// Ring 1: devices only (8 hops).
	appendRingLinks(t, dgxRings[0][:], p.LinkBW)
	// Ring 2: the lower memory-nodes interleaved (12 hops).
	r2 := []int{0, mem[0], 1, mem[1], 2, mem[2], 3, mem[3], 4, 5, 6, 7}
	appendRingLinks(t, r2, p.LinkBW)
	// Ring 3: a 20-hop closed walk threading every device once, the upper
	// memory-nodes twice, and the lower memory-nodes once.
	r3 := []int{
		4, mem[4], 5, mem[5], 6, mem[6], 7, mem[7],
		0, mem[4], 1, mem[5], 2, mem[6], 3, mem[7],
		mem[0], mem[1], mem[2], mem[3],
	}
	appendRingLinks(t, r3, p.LinkBW)
	return t
}

// MCDLARing builds the proposed Figure 7(c) interconnect: N/2 = 3 rings,
// each alternating device- and memory-nodes (16 hops), so every device has a
// pair of links to the memory-nodes on its logical left and right in every
// ring — 6 links to memory-nodes total, unlocking N×B for BW_AWARE
// virtualization while retaining three 8-device rings for collectives.
func MCDLARing(p Params) *Topology {
	p.validate()
	t := &Topology{Name: "mc-dla-ring", Nodes: devices(p.Devices)}
	mem := memoryNodes(t, p.Devices)
	// Three alternating rings with rotated memory assignments so link
	// lengths stay short in the physical package (Figure 8).
	for r := 0; r < 3; r++ {
		ring := make([]int, 0, 2*p.Devices)
		for i := 0; i < p.Devices; i++ {
			d := dgxRings[r][i]
			ring = append(ring, d, mem[(d+r)%p.Devices])
		}
		appendRingLinks(t, ring, p.LinkBW)
	}
	return t
}

// HCDLAHostLinks reports the per-device link split of the HC-DLA design
// (§II-C / §IV): half the N links go to the host CPU, half remain for the
// device-side interconnect.
func HCDLAHostLinks(p Params) (toHost, toDevices int) {
	return p.LinksN / 2, p.LinksN - p.LinksN/2
}
