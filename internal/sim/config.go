// Package sim is the tiled-CMP simulator: a trace-driven, deterministic
// timing model with the CPI-stack accounting the paper's evaluation uses
// (Figures 7-12). It substitutes for the Flexus full-system simulation as
// described in DESIGN.md: each core consumes a reference stream; every L2
// access is charged a latency composed from NoC traversals, slice accesses,
// coherence actions, and off-chip accesses; results are reported as CPI
// broken into the paper's buckets (Busy, L1-to-L1, L2, Off-chip, Other,
// Re-classification).
package sim

import (
	"fmt"

	"rnuca/internal/cache"
	"rnuca/internal/mem"
	"rnuca/internal/noc"
	"rnuca/internal/ospage"
)

// Config carries the Table 1 system parameters.
//
//rnuca:wire
type Config struct {
	Name  string `json:"Name"`
	Cores int    `json:"Cores"`
	GridW int    `json:"GridW"`
	GridH int    `json:"GridH"`

	// L2 NUCA slice parameters.
	L2SliceBytes int `json:"L2SliceBytes"`
	L2Ways       int `json:"L2Ways"`
	L2HitCycles  int `json:"L2HitCycles"`

	// L1 parameters (split I/D).
	L1Bytes     int `json:"L1Bytes"`
	L1Ways      int `json:"L1Ways"`
	L1HitCycles int `json:"L1HitCycles"`

	BlockBytes    int `json:"BlockBytes"`
	VictimEntries int `json:"VictimEntries"`
	MSHRs         int `json:"MSHRs"`

	// OS layer.
	PageBytes  int `json:"PageBytes"`
	TLBEntries int `json:"TLBEntries"`
	// PageWalkCycles is charged on a TLB miss.
	PageWalkCycles int `json:"PageWalkCycles"`
	// PurgePerBlockCycles is charged per block invalidated during an
	// R-NUCA page re-classification (the OS shootdown kernel thread).
	PurgePerBlockCycles int `json:"PurgePerBlockCycles"`
	// PoisonCycles is charged once per page re-classification.
	PoisonCycles int `json:"PoisonCycles"`

	// Memory.
	MemAccessCycles int `json:"MemAccessCycles"`

	// DirCycles is the directory-lookup occupancy charged at a home tile
	// in addition to network traversal.
	DirCycles int `json:"DirCycles"`

	// Interconnect.
	Link noc.LinkConfig `json:"Link"`

	// R-NUCA instruction cluster size (4 in the paper's configuration).
	InstrClusterSize int `json:"InstrClusterSize"`

	// Mesh switches the interconnect from the paper's 2-D folded torus to
	// a 2-D mesh, for the §5.1 topology discussion ("meshes are prone to
	// hot spots and penalize tiles at the network edges").
	Mesh bool `json:"Mesh"`

	// LinkQueues selects the per-link FCFS contention model instead of
	// the windowed analytic one (see noc.Network): contention resolved
	// per message in simulated time rather than on window averages.
	LinkQueues bool `json:"LinkQueues"`

	// WindowCycles sets the contention-model window length.
	WindowCycles uint64 `json:"WindowCycles"`
}

// Config16 returns the 16-core server/scientific configuration from
// Table 1: 4x4 torus, 1MB 16-way slices with 14-cycle hits.
func Config16() Config {
	return Config{
		Name:  "16-core",
		Cores: 16, GridW: 4, GridH: 4,
		L2SliceBytes: 1 << 20, L2Ways: 16, L2HitCycles: 14,
		L1Bytes: 64 << 10, L1Ways: 2, L1HitCycles: 2,
		BlockBytes: 64, VictimEntries: 16, MSHRs: 32,
		PageBytes: 8 << 10, TLBEntries: 64,
		PageWalkCycles: 30, PurgePerBlockCycles: 4, PoisonCycles: 200,
		MemAccessCycles: 90, DirCycles: 8,
		Link:             noc.DefaultLinkConfig(),
		InstrClusterSize: 4,
		WindowCycles:     50000,
	}
}

// Config8 returns the 8-core multi-programmed configuration from Table 1:
// 4x2 torus, 3MB 12-way slices with 25-cycle hits.
func Config8() Config {
	c := Config16()
	c.Name = "8-core"
	c.Cores = 8
	c.GridW, c.GridH = 4, 2
	c.L2SliceBytes = 3 << 20
	c.L2Ways = 12
	c.L2HitCycles = 25
	return c
}

// MaxCores is the largest chip the simulator models: directory sharer
// sets are 64-bit masks.
const MaxCores = 64

// MaxWindowCycles caps the contention-model window at 64 times Table 1's
// 50,000 cycles.
const MaxWindowCycles = 64 * 50000

// Validate reports configuration errors: every rule a constructor of
// the chassis or a design would panic on, checked by the same function
// the constructor calls.
func (c Config) Validate() error {
	if c.Cores != c.GridW*c.GridH {
		return fmt.Errorf("sim: %d cores on %dx%d grid", c.Cores, c.GridW, c.GridH)
	}
	if c.Cores <= 0 || c.Cores > MaxCores {
		return fmt.Errorf("sim: core count %d outside 1..%d", c.Cores, MaxCores)
	}
	for _, err := range []error{
		c.L1Geometry().Validate(),
		c.L2Geometry().Validate(),
		cache.CheckVictimEntries(c.VictimEntries),
		c.memConfig().Validate(),
		ospage.CheckTLBEntries(c.TLBEntries),
		c.Link.Validate(),
	} {
		if err != nil {
			return err
		}
	}
	if c.BlockBytes > c.PageBytes {
		return fmt.Errorf("sim: %d-byte blocks exceed %d-byte pages", c.BlockBytes, c.PageBytes)
	}
	if c.InstrClusterSize < 1 {
		return fmt.Errorf("sim: instruction cluster size %d", c.InstrClusterSize)
	}
	if c.WindowCycles == 0 {
		return fmt.Errorf("sim: zero window")
	}
	if c.WindowCycles > MaxWindowCycles {
		return fmt.Errorf("sim: window of %d cycles above %d", c.WindowCycles, MaxWindowCycles)
	}
	return nil
}

// L1Geometry returns the shape of each L1 cache.
func (c Config) L1Geometry() cache.Geometry {
	return cache.Geometry{SizeBytes: c.L1Bytes, Ways: c.L1Ways, BlockBytes: c.BlockBytes}
}

// L2Geometry returns the shape of each L2 slice.
func (c Config) L2Geometry() cache.Geometry {
	return cache.Geometry{SizeBytes: c.L2SliceBytes, Ways: c.L2Ways, BlockBytes: c.BlockBytes}
}

// memConfig returns the memory system the chassis builds.
func (c Config) memConfig() mem.Config {
	m := mem.DefaultConfig(c.Cores)
	m.AccessCycles = c.MemAccessCycles
	m.PageBytes = c.PageBytes
	return m
}

// InterleaveOffset returns the bit offset of the slice-interleaving field:
// the address bits immediately above the L2 set-index bits (§4.1).
func (c Config) InterleaveOffset() uint {
	blockBits := uint(0)
	for b := c.BlockBytes; b > 1; b >>= 1 {
		blockBits++
	}
	sets := c.L2SliceBytes / (c.L2Ways * c.BlockBytes)
	setBits := uint(0)
	for s := sets; s > 1; s >>= 1 {
		setBits++
	}
	return blockBits + setBits
}

// Bucket indexes the CPI components of Figure 7.
type Bucket int

// CPI buckets. BucketL2Coh is reported merged into BucketL2 for Figure 7
// and separately for Figure 8 ("L2 shared load coherence").
const (
	BucketBusy Bucket = iota
	BucketL1toL1
	BucketL2
	BucketL2Coh
	BucketOffChip
	BucketOther
	BucketReclass
	NumBuckets
)

// String implements fmt.Stringer.
func (b Bucket) String() string {
	switch b {
	case BucketBusy:
		return "Busy"
	case BucketL1toL1:
		return "L1-to-L1"
	case BucketL2:
		return "L2"
	case BucketL2Coh:
		return "L2-coherence"
	case BucketOffChip:
		return "Off-chip"
	case BucketOther:
		return "Other"
	case BucketReclass:
		return "Re-classification"
	default:
		return "?"
	}
}

// Cost is a latency decomposition returned by a design for one access.
type Cost struct {
	L1toL1  float64
	L2      float64
	L2Coh   float64
	OffChip float64
	Reclass float64
	// OffChipMiss marks accesses that went to memory.
	OffChipMiss bool
}

// Total returns the summed latency.
func (c Cost) Total() float64 {
	return c.L1toL1 + c.L2 + c.L2Coh + c.OffChip + c.Reclass
}
