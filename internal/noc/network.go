package noc

import "fmt"

// LinkConfig carries the physical parameters of the interconnect from
// Table 1 of the paper.
//
//rnuca:wire
type LinkConfig struct {
	// LinkBytes is the link width: bytes moved per flit (32 in Table 1).
	LinkBytes int `json:"LinkBytes"`
	// LinkLatency is the per-hop wire latency in cycles (1 in Table 1).
	LinkLatency int `json:"LinkLatency"`
	// RouterLatency is the per-hop router pipeline latency in cycles
	// (2 in Table 1).
	RouterLatency int `json:"RouterLatency"`
}

// DefaultLinkConfig returns the Table 1 interconnect parameters.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{LinkBytes: 32, LinkLatency: 1, RouterLatency: 2}
}

// Caps on the link parameters: 64 times the Table 1 values. They keep
// Latency's hops*(LinkLatency+RouterLatency) and Flits' bytes+LinkBytes-1
// far from overflowing int.
const (
	MaxLinkBytes     = 64 * 32
	MaxLinkLatency   = 64 * 1
	MaxRouterLatency = 64 * 2
)

// Validate reports a link configuration NewNetwork cannot model.
func (c LinkConfig) Validate() error {
	switch {
	case c.LinkBytes <= 0 || c.LinkLatency < 0 || c.RouterLatency < 0:
		return fmt.Errorf("noc: invalid link config %+v", c)
	case c.LinkBytes > MaxLinkBytes:
		return fmt.Errorf("noc: %d-byte links above %d", c.LinkBytes, MaxLinkBytes)
	case c.LinkLatency > MaxLinkLatency:
		return fmt.Errorf("noc: link latency of %d cycles above %d", c.LinkLatency, MaxLinkLatency)
	case c.RouterLatency > MaxRouterLatency:
		return fmt.Errorf("noc: router latency of %d cycles above %d", c.RouterLatency, MaxRouterLatency)
	}
	return nil
}

// Flits returns the number of flits needed to carry a message of the given
// payload size (minimum 1, for header-only control messages).
func (c LinkConfig) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + c.LinkBytes - 1) / c.LinkBytes
}

// Message sizes used by the coherence protocols and cache designs, in
// bytes. Control messages (requests, acks, invalidations) fit in one flit;
// data messages carry a 64-byte cache block plus the header.
const (
	CtrlBytes = 8  // request/ack/invalidate: header only
	DataBytes = 72 // 64-byte block + 8-byte header
)

// Network wraps a Topology with traffic accounting and a contention model.
// It is the single point through which the simulator charges on-chip
// communication latency.
//
// Two contention models are available:
//
//   - The default analytic model: the simulator runs in windows; the
//     network accumulates flit-hops and, at each Advance(cycles), computes
//     per-link utilization rho = flitHops / (links x cycles). The next
//     window's traversals are charged an extra queueing delay per hop from
//     the M/D/1 closed form, rho / (2 (1 - rho)) service times.
//
//   - The link-queue model (EnableLinkQueues): every message walks its
//     dimension-order route against per-link FCFS busy-until timestamps.
//     A message arriving at a busy link waits until the link frees; its
//     flits then occupy the link for one cycle each. This resolves
//     contention per message in simulated time rather than on averages;
//     the `nocmodel` ablation compares both.
//
// Both kinds of per-link state, the link-queue model's busy-until times
// and the flight recorder's flit counts, are slices indexed by a dense
// link id.
// One route table, built by the first per-link consumer, holds each
// ordered tile pair's dimension-order route as link ids; the analytic
// model without a recorder never builds it and needs only Hops.
type Network struct {
	topo Topology
	cfg  LinkConfig
	// links counts the directed links, the ordered tile pairs one hop
	// apart; the analytic model divides traffic by it.
	links int

	// Window accumulation.
	flitHops uint64
	messages uint64

	// Totals across the whole run.
	totalFlitHops uint64
	totalMessages uint64
	totalCycles   uint64

	// queuePenalty is the additional per-hop delay (in cycles, may be
	// fractional) charged during the current window, computed from the
	// previous window's utilization.
	queuePenalty float64

	// The route table: pair src*tiles+dst's route is
	// routes[start[pair]:start[pair+1]], and linkOf labels each id.
	tiles  int
	start  []int32
	routes []int32
	linkOf []Link

	// Flight accounting, nil until EnableLinkAccounting: flits per link
	// id, and the ids traversed so far in first-traversal order, so
	// snapshots iterate deterministically. It only reads routes and can
	// never affect charged latency.
	linkFlits []uint64
	order     []int32
	traversed int

	// Link-queue model state; busyUntil is nil under the analytic model.
	busyUntil  []float64
	now        float64
	waitCycles float64
}

// NewNetwork returns a Network over the given topology and link parameters.
func NewNetwork(topo Topology, cfg LinkConfig) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{topo: topo, cfg: cfg, tiles: topo.Tiles()}
	for a := 0; a < n.tiles; a++ {
		for b := 0; b < n.tiles; b++ {
			if topo.Hops(TileID(a), TileID(b)) == 1 {
				n.links++
			}
		}
	}
	return n
}

// buildRoutes fills the route table once, numbering links in order of
// first appearance over the pairs' routes.
func (n *Network) buildRoutes() {
	if n.start != nil {
		return
	}
	ids := make([]int32, n.tiles*n.tiles) // 1 + id of link (from, to)
	n.start = make([]int32, 1, n.tiles*n.tiles+1)
	var buf []Link
	for a := 0; a < n.tiles; a++ {
		for b := 0; b < n.tiles; b++ {
			buf = n.topo.AppendRoute(buf[:0], TileID(a), TileID(b))
			for _, l := range buf {
				k := int(l.From)*n.tiles + int(l.To)
				if ids[k] == 0 {
					n.linkOf = append(n.linkOf, l)
					ids[k] = int32(len(n.linkOf))
				}
				n.routes = append(n.routes, ids[k]-1)
			}
			n.start = append(n.start, int32(len(n.routes)))
		}
	}
}

// route returns the link ids of the dimension-order route from src to dst.
func (n *Network) route(src, dst TileID) []int32 {
	p := int(src)*n.tiles + int(dst)
	return n.routes[n.start[p]:n.start[p+1]]
}

// EnableLinkQueues switches contention resolution to the per-link FCFS
// busy-until model. The simulator must then keep SetNow up to date with
// the requesting core's clock before charging traversals.
func (n *Network) EnableLinkQueues() {
	n.buildRoutes()
	n.busyUntil = make([]float64, len(n.linkOf))
}

// SetNow tells the link-queue model the current simulated time (the
// requesting core's clock). It has no effect under the analytic model.
func (n *Network) SetNow(t float64) { n.now = t }

// WaitCycles returns the cumulative cycles messages spent queued on busy
// links (link-queue model only).
func (n *Network) WaitCycles() float64 { return n.waitCycles }

// Latency returns the end-to-end latency in cycles for a message of the
// given payload from src to dst, including the current contention penalty,
// and records the traffic. src == dst costs zero (same-tile access).
//
//rnuca:hotpath
func (n *Network) Latency(src, dst TileID, bytes int) float64 {
	//rnuca:alloc-ok topology dispatch is the designed seam; Hops is pure integer math on both implementations
	hops := n.topo.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := n.cfg.Flits(bytes)
	n.flitHops += uint64(flits * hops)
	n.messages++
	if n.linkFlits != nil {
		for _, id := range n.route(src, dst) {
			if n.linkFlits[id] == 0 {
				n.order[n.traversed] = id
				n.traversed++
			}
			n.linkFlits[id] += uint64(flits)
		}
	}
	if n.busyUntil != nil {
		return n.traverseQueued(n.route(src, dst), flits)
	}
	// Pipeline model: head flit pays per-hop link+router latency; body
	// flits stream behind (cut-through), adding serialization latency of
	// (flits-1) cycles at the destination.
	base := float64(hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + (flits - 1))
	return base + float64(hops)*n.queuePenalty
}

// traverseQueued walks a route against per-link FCFS occupancy: a
// message waits for each busy link, then occupies it for one cycle per
// flit.
//
//rnuca:hotpath
func (n *Network) traverseQueued(route []int32, flits int) float64 {
	arrival := n.now
	for _, id := range route {
		depart := arrival
		if busy := n.busyUntil[id]; busy > depart {
			n.waitCycles += busy - depart
			depart = busy
		}
		n.busyUntil[id] = depart + float64(flits)
		arrival = depart + float64(n.cfg.LinkLatency+n.cfg.RouterLatency)
	}
	// Serialization of the message body behind the head flit.
	arrival += float64(flits - 1)
	return arrival - n.now
}

// String renders a directed link as "from>to" for timeline labels.
func (l Link) String() string { return fmt.Sprintf("%d>%d", l.From, l.To) }

// EnableLinkAccounting turns on per-link flit accounting on the Latency
// hot path, kept in first-traversal order for deterministic snapshots.
// The accounting reads routes but feeds nothing back into charged
// latency, so enabling it cannot perturb timing. Enabling it again keeps
// the counts.
func (n *Network) EnableLinkAccounting() {
	if n.linkFlits == nil {
		n.buildRoutes()
		n.linkFlits = make([]uint64, len(n.linkOf))
		n.order = make([]int32, len(n.linkOf))
	}
}

// LinkTraffic returns the accounted links in first-traversal order and
// their cumulative flit counts. The returned slices are copies.
func (n *Network) LinkTraffic() (links []Link, flits []uint64) {
	for _, id := range n.order[:n.traversed] {
		links = append(links, n.linkOf[id])
		flits = append(flits, n.linkFlits[id])
	}
	return links, flits
}

// Advance closes the current traffic window after the given number of
// elapsed cycles, recomputes the contention penalty for the next window,
// and resets window accumulators.
func (n *Network) Advance(cycles uint64) {
	n.totalFlitHops += n.flitHops
	n.totalMessages += n.messages
	n.totalCycles += cycles
	rho := n.utilization(n.flitHops, cycles)
	// M/D/1 mean queueing delay in units of the service time (1 cycle
	// per flit-hop): W = rho / (2(1-rho)). Clamp to keep the fixed point
	// stable when a window saturates.
	const rhoMax = 0.95
	if rho > rhoMax {
		rho = rhoMax
	}
	n.queuePenalty = rho / (2 * (1 - rho))
	n.flitHops = 0
	n.messages = 0
}

// utilization estimates mean link utilization for the window.
func (n *Network) utilization(flitHops, cycles uint64) float64 {
	if cycles == 0 || n.links == 0 {
		return 0
	}
	return float64(flitHops) / (float64(n.links) * float64(cycles))
}

// Stats reports run totals.
type Stats struct {
	FlitHops uint64
	Messages uint64
	Cycles   uint64
	MeanRho  float64
}

// TotalStats returns run-wide counters, folding in the still-open window.
func (n *Network) TotalStats() Stats {
	fh := n.totalFlitHops + n.flitHops
	return Stats{
		FlitHops: fh,
		Messages: n.totalMessages + n.messages,
		Cycles:   n.totalCycles,
		MeanRho:  n.utilization(fh, n.totalCycles),
	}
}

// Reset clears all accounting but keeps topology, configuration, and the
// selected contention model.
func (n *Network) Reset() {
	n.flitHops, n.messages = 0, 0
	n.totalFlitHops, n.totalMessages, n.totalCycles = 0, 0, 0
	n.queuePenalty = 0
	clear(n.linkFlits)
	n.traversed = 0
	n.now, n.waitCycles = 0, 0
	clear(n.busyUntil)
}
