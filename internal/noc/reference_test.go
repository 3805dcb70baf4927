package noc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refNetwork is the map-keyed Network the route table replaced: it
// re-walks each message's route, keys link-queue occupancy and flight
// accounting by Link, and derives the link count from the topology's
// type. It is the reference the Network must match op for op.
type refNetwork struct {
	topo Topology
	cfg  LinkConfig

	flitHops, messages                        uint64
	totalFlitHops, totalMessages, totalCycles uint64
	queuePenalty                              float64

	linkAcct  bool
	acctIndex map[Link]int
	acctLinks []Link
	acctFlits []uint64

	queueModel bool
	now        float64
	nextFree   map[Link]float64
	waitCycles float64
}

func newRefNetwork(topo Topology, cfg LinkConfig) *refNetwork {
	return &refNetwork{topo: topo, cfg: cfg}
}

func (n *refNetwork) EnableLinkQueues() {
	n.queueModel = true
	n.nextFree = make(map[Link]float64)
}

func (n *refNetwork) SetNow(t float64) { n.now = t }

func (n *refNetwork) WaitCycles() float64 { return n.waitCycles }

func (n *refNetwork) Latency(src, dst TileID, bytes int) float64 {
	hops := n.topo.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := n.cfg.Flits(bytes)
	n.flitHops += uint64(flits * hops)
	n.messages++
	if n.linkAcct {
		for _, l := range n.topo.AppendRoute(nil, src, dst) {
			i, ok := n.acctIndex[l]
			if !ok {
				i = len(n.acctLinks)
				n.acctIndex[l] = i
				n.acctLinks = append(n.acctLinks, l)
				n.acctFlits = append(n.acctFlits, 0)
			}
			n.acctFlits[i] += uint64(flits)
		}
	}
	if n.queueModel {
		arrival := n.now
		for _, l := range n.topo.AppendRoute(nil, src, dst) {
			depart := arrival
			if busy := n.nextFree[l]; busy > depart {
				n.waitCycles += busy - depart
				depart = busy
			}
			n.nextFree[l] = depart + float64(flits)
			arrival = depart + float64(n.cfg.LinkLatency+n.cfg.RouterLatency)
		}
		arrival += float64(flits - 1)
		return arrival - n.now
	}
	base := float64(hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + (flits - 1))
	return base + float64(hops)*n.queuePenalty
}

func (n *refNetwork) EnableLinkAccounting() {
	n.linkAcct = true
	if n.acctIndex == nil {
		n.acctIndex = make(map[Link]int)
	}
}

func (n *refNetwork) LinkTraffic() ([]Link, []uint64) {
	return append([]Link(nil), n.acctLinks...), append([]uint64(nil), n.acctFlits...)
}

func (n *refNetwork) Advance(cycles uint64) {
	n.totalFlitHops += n.flitHops
	n.totalMessages += n.messages
	n.totalCycles += cycles
	rho := n.utilization(n.flitHops, cycles)
	const rhoMax = 0.95
	if rho > rhoMax {
		rho = rhoMax
	}
	n.queuePenalty = rho / (2 * (1 - rho))
	n.flitHops = 0
	n.messages = 0
}

func (n *refNetwork) utilization(flitHops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	links := n.linkCount()
	if links == 0 {
		return 0
	}
	return float64(flitHops) / (float64(links) * float64(cycles))
}

func (n *refNetwork) linkCount() int {
	w, h := n.topo.Dims()
	switch n.topo.(type) {
	case *FoldedTorus2D:
		lx := 2 * w * h
		if w == 1 {
			lx = 0
		} else if w == 2 {
			lx = w * h
		}
		ly := 2 * w * h
		if h == 1 {
			ly = 0
		} else if h == 2 {
			ly = w * h
		}
		return lx + ly
	case *Mesh2D:
		return 2*((w-1)*h) + 2*(w*(h-1))
	default:
		return 4 * w * h
	}
}

func (n *refNetwork) TotalStats() Stats {
	fh := n.totalFlitHops + n.flitHops
	return Stats{
		FlitHops: fh,
		Messages: n.totalMessages + n.messages,
		Cycles:   n.totalCycles,
		MeanRho:  n.utilization(fh, n.totalCycles),
	}
}

func (n *refNetwork) Reset() {
	n.flitHops, n.messages = 0, 0
	n.totalFlitHops, n.totalMessages, n.totalCycles = 0, 0, 0
	n.queuePenalty = 0
	if n.linkAcct {
		n.acctIndex = make(map[Link]int)
		n.acctLinks, n.acctFlits = nil, nil
	}
	n.now, n.waitCycles = 0, 0
	if n.queueModel {
		n.nextFree = make(map[Link]float64)
	}
}

// fuzzGrids are the grids the fuzzer picks from: the degenerate 1x1
// and 1x4, size-2 rings (2x2, 4x2), odd sizes (3x5), the paper's 4x4
// and the 64-core 8x8.
var fuzzGrids = [][2]int{{1, 1}, {1, 4}, {2, 2}, {3, 5}, {4, 2}, {4, 4}, {8, 8}}

// fuzzBytes are the payload sizes a Latency op picks from: header-only,
// control, data, and multi-flit payloads beyond a block.
var fuzzBytes = []int{0, 8, 72, 200, 1000}

// runNetworkTape drives a Network and the reference with the same
// operations, three bytes each, and compares every observable after
// each one: Latency's result and WaitCycles by their bits, TotalStats,
// the contention penalty and LinkTraffic.
func runNetworkTape(t *testing.T, grid byte, mesh, queues bool, tape []byte) {
	g := fuzzGrids[int(grid)%len(fuzzGrids)]
	var topo Topology = NewFoldedTorus2D(g[0], g[1])
	if mesh {
		topo = NewMesh2D(g[0], g[1])
	}
	cfg := DefaultLinkConfig()
	n, ref := NewNetwork(topo, cfg), newRefNetwork(topo, cfg)
	if queues {
		n.EnableLinkQueues()
		ref.EnableLinkQueues()
	}
	tiles := topo.Tiles()
	for i := 0; len(tape) >= 3; i, tape = i+1, tape[3:] {
		op, a, b := tape[0], tape[1], tape[2]
		where := func() string {
			return fmt.Sprintf("%dx%d %s queues=%v op %d (%d %d %d)", g[0], g[1], topo.Name(), queues, i, op, a, b)
		}
		switch op % 8 {
		case 0, 1, 2, 3:
			src, dst := TileID(int(a)%tiles), TileID(int(b)%tiles)
			bytes := fuzzBytes[int(op/8)%len(fuzzBytes)]
			got, want := n.Latency(src, dst, bytes), ref.Latency(src, dst, bytes)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Latency(%d, %d, %d) = %v, reference %v", where(), src, dst, bytes, got, want)
			}
		case 4:
			// Times step forward or backward by up to 255 cycles.
			now := ref.now + float64(int(a)-int(b))
			n.SetNow(now)
			ref.SetNow(now)
		case 5:
			n.Advance(uint64(a) * uint64(b))
			ref.Advance(uint64(a) * uint64(b))
		case 6:
			n.Reset()
			ref.Reset()
		case 7:
			n.EnableLinkAccounting()
			ref.EnableLinkAccounting()
		}
		if got, want := n.WaitCycles(), ref.WaitCycles(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: WaitCycles %v, reference %v", where(), got, want)
		}
		if got, want := n.TotalStats(), ref.TotalStats(); got != want {
			t.Fatalf("%s: TotalStats %+v, reference %+v", where(), got, want)
		}
		if math.Float64bits(n.queuePenalty) != math.Float64bits(ref.queuePenalty) {
			t.Fatalf("%s: penalty %v, reference %v", where(), n.queuePenalty, ref.queuePenalty)
		}
		gl, gf := n.LinkTraffic()
		wl, wf := ref.LinkTraffic()
		if fmt.Sprint(gl, gf) != fmt.Sprint(wl, wf) || (gl == nil) != (wl == nil) || (gf == nil) != (wf == nil) {
			t.Fatalf("%s: LinkTraffic %v %v, reference %v %v", where(), gl, gf, wl, wf)
		}
	}
}

// Random tapes over every fuzz grid, both topologies and both
// contention models.
func TestNetworkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for grid := range fuzzGrids {
		for _, mesh := range []bool{false, true} {
			for _, queues := range []bool{false, true} {
				tape := make([]byte, 3*3000)
				rng.Read(tape)
				runNetworkTape(t, byte(grid), mesh, queues, tape)
			}
		}
	}
}

func FuzzNetworkMatchesReference(f *testing.F) {
	f.Add(uint8(5), false, true, []byte("\x07\x00\x00\x00\x00\x05\x08\x03\x0a\x04\x10\x00\x01\x0f\x0e\x05\x10\x10\x06\x00\x00\x02\x01\x02"))
	f.Add(uint8(4), true, false, []byte("\x00\x00\x03\x05\x40\x02\x07\x00\x00\x10\x00\x03\x0c\x07\x01\x04\x00\x20"))
	f.Add(uint8(6), false, true, []byte("\x07\x00\x00\x01\x00\x3f\x04\x00\x40\x11\x3f\x00\x07\x00\x00\x1b\x05\x31"))
	f.Fuzz(func(t *testing.T, grid uint8, mesh, queues bool, tape []byte) {
		runNetworkTape(t, grid, mesh, queues, tape)
	})
}
