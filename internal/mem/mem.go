// Package mem models main memory and the on-die memory controllers of the
// tiled CMP. Table 1 of the paper: 3 GB memory, 8 KB pages, 45 ns access
// latency (90 cycles at the 2 GHz core clock), one controller per four
// cores with round-robin page interleaving, each controller co-located
// with one tile.
package mem

import (
	"fmt"

	"rnuca/internal/noc"
	"rnuca/internal/ospage"
)

// Config describes the memory system.
type Config struct {
	// AccessCycles is the DRAM access latency in core cycles
	// (45 ns * 2 GHz = 90).
	AccessCycles int
	// PageBytes is the OS page size used for controller interleaving.
	PageBytes int
	// Controllers is the number of memory controllers.
	Controllers int
	// ControllerTiles maps each controller to the tile it is co-located
	// with; requests traverse the NoC to that tile before going off-chip.
	ControllerTiles []noc.TileID
	// ServiceCycles is the controller occupancy per request, used by the
	// queueing model (DRAM burst of a 64-byte block over the channel).
	ServiceCycles int
}

// DefaultConfig returns the Table 1 memory system for a CMP with the given
// number of tiles (one controller per 4 cores, controllers spread evenly).
func DefaultConfig(tiles int) Config {
	nctl := tiles / 4
	if nctl == 0 {
		nctl = 1
	}
	cfg := Config{
		AccessCycles:  90,
		PageBytes:     8192,
		Controllers:   nctl,
		ServiceCycles: 4,
	}
	for i := 0; i < nctl; i++ {
		cfg.ControllerTiles = append(cfg.ControllerTiles, noc.TileID(i*tiles/nctl))
	}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AccessCycles <= 0 {
		return fmt.Errorf("mem: non-positive access latency %d", c.AccessCycles)
	}
	if err := ospage.CheckPageBytes(c.PageBytes); err != nil {
		return err
	}
	if c.Controllers != len(c.ControllerTiles) {
		return fmt.Errorf("mem: %d controllers but %d tiles listed", c.Controllers, len(c.ControllerTiles))
	}
	if c.Controllers == 0 {
		return fmt.Errorf("mem: no controllers")
	}
	return nil
}

// Memory charges off-chip access latency and models controller contention
// with the same windowed utilization scheme as the NoC: requests accumulate
// per controller within a window; Advance(cycles) recomputes an M/D/1
// queueing penalty applied during the next window.
type Memory struct {
	cfg Config

	window  []uint64 // requests per controller this window
	penalty []float64

	totalRequests uint64
	totalCycles   uint64
}

// New builds the memory model.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Memory{
		cfg:     cfg,
		window:  make([]uint64, cfg.Controllers),
		penalty: make([]float64, cfg.Controllers),
	}
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// ControllerFor returns the controller servicing the given physical
// address: pages are round-robin interleaved across controllers.
func (m *Memory) ControllerFor(addr uint64) int {
	page := addr / uint64(m.cfg.PageBytes)
	return int(page % uint64(m.cfg.Controllers))
}

// ControllerTile returns the tile a controller is co-located with.
func (m *Memory) ControllerTile(ctl int) noc.TileID {
	return m.cfg.ControllerTiles[ctl]
}

// Access charges one off-chip access for addr issued from the given tile,
// returning the total latency in cycles: NoC traversal to the controller
// tile, DRAM access, queueing penalty, and NoC return with the data.
func (m *Memory) Access(n *noc.Network, from noc.TileID, addr uint64) float64 {
	ctl := m.ControllerFor(addr)
	m.window[ctl]++
	m.totalRequests++
	tile := m.cfg.ControllerTiles[ctl]
	lat := n.Latency(from, tile, noc.CtrlBytes) // request
	lat += float64(m.cfg.AccessCycles)
	lat += m.penalty[ctl]
	lat += n.Latency(tile, from, noc.DataBytes) // data return
	return lat
}

// Advance closes the current window after the given elapsed cycles,
// recomputing each controller's queueing penalty.
func (m *Memory) Advance(cycles uint64) {
	m.totalCycles += cycles
	for i := range m.window {
		rho := 0.0
		if cycles > 0 {
			rho = float64(m.window[i]) * float64(m.cfg.ServiceCycles) / float64(cycles)
		}
		const rhoMax = 0.95
		if rho > rhoMax {
			rho = rhoMax
		}
		m.penalty[i] = rho / (2 * (1 - rho)) * float64(m.cfg.ServiceCycles)
		m.window[i] = 0
	}
}

// Requests returns the total number of off-chip requests charged.
func (m *Memory) Requests() uint64 { return m.totalRequests }

// Reset clears accounting.
func (m *Memory) Reset() {
	for i := range m.window {
		m.window[i] = 0
		m.penalty[i] = 0
	}
	m.totalRequests = 0
	m.totalCycles = 0
}
