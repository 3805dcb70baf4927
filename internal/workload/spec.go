// Package workload synthesizes the paper's workloads. The originals are
// commercial applications (TPC-C on DB2 and Oracle, SPECweb on Apache,
// TPC-H decision-support queries, the em3d scientific kernel, and a SPEC
// CPU2000 multi-programmed mix) running on Solaris under Flexus — none of
// which can ship with this repository. Per the substitution rule, each
// workload is replaced by a statistical generator calibrated to the
// paper's own published characterization:
//
//   - Figure 3 sets the class mix (instruction / private / shared-RW /
//     shared-RO fractions of L2 accesses);
//   - Figure 4 sets the per-class working-set footprints;
//   - Figure 2 sets the sharing patterns (universal sharing for servers,
//     producer-consumer pairs for em3d, none for MIX);
//   - Figure 5's reuse behavior emerges from the random interleaving of
//     per-core draws plus the write fractions;
//   - §5.2 sets the fraction of pages hosting more than one class.
//
// The placement policies under study react only to these statistics — not
// to program semantics — so preserving them preserves the evaluation.
//
// # Reference tapes
//
// A core's stream depends only on the spec, its seed and the core, so
// cells that read the same batch (a comparison's designs, ASR's six
// variants) can share it. A Tape generates each core's stream once, as
// a list of immutable chunks of 4096 references that the core's own
// Generator appends under a per-core mutex when a cursor first reads
// past the end; every cursor (Tape.Streams) then reads exactly
// NewGenerator's sequence for its core, at its own pace.
//
// A tape is held for as long as its batch's cells run, so it stores
// each reference in one 64-bit word instead of a 48-byte trace.Ref.
// From the low bit: the block address Addr/64 in 29 bits (every
// generated address is 64-byte aligned and below 2^35), Thread in 6
// (at most MaxTapeCores = 64 cores), Busy in 12 (at most 3/2 of
// MaxBusyPerRef, 2688), Kind in 2 and Class in 2; Core is the tape's
// own core. References from traces and external sources carry
// arbitrary addresses and busy counts, which this layout cannot hold,
// so only generated streams go on a tape.
package workload

import "fmt"

// Category groups workloads the way the paper does.
type Category int

// Workload categories.
const (
	Server Category = iota
	Scientific
	MultiProgrammed
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Server:
		return "server"
	case Scientific:
		return "scientific"
	default:
		return "multi-programmed"
	}
}

// Spec is the statistical description of one workload. Its encoding is
// part of the job canonical form (rnuca.Input embeds a Spec), so every
// field carries an explicit tag repeating the frozen name —
// testdata/job-canonical.json holds the bytes.
//
//rnuca:wire
type Spec struct {
	Name     string   `json:"Name"`
	Category Category `json:"Category"`
	// Cores is the CMP size the paper runs this workload on (16 for
	// server/scientific, 8 for MIX).
	Cores int `json:"Cores"`

	// L2 access mix, summing to 1 (Figure 3).
	FracInstr    float64 `json:"FracInstr"`
	FracPrivate  float64 `json:"FracPrivate"`
	FracSharedRW float64 `json:"FracSharedRW"`
	FracSharedRO float64 `json:"FracSharedRO"`

	// Footprints in bytes (Figure 4; the instruction curve for OLTP and
	// Apache approaches a full 1MB slice, DSS scans are multi-gigabyte,
	// MIX private data fills its 3MB slices).
	InstrFootprint    int64 `json:"InstrFootprint"`
	PrivatePerCore    int64 `json:"PrivatePerCore"`
	SharedFootprint   int64 `json:"SharedFootprint"`
	SharedROFootprint int64 `json:"SharedROFootprint"`

	// PrivateFootprints, when non-nil, gives each thread its own private
	// footprint (length must equal Cores), modelling heterogeneous
	// multi-programmed mixes whose threads have very different working
	// sets — the scenario §4.4 motivates private-data clusters with.
	// Incompatible with MigrationPeriod.
	PrivateFootprints []int64 `json:"PrivateFootprints"`

	// Zipf skews shaping the working-set CDFs (higher = hotter head).
	InstrSkew   float64 `json:"InstrSkew"`
	PrivateSkew float64 `json:"PrivateSkew"`
	SharedSkew  float64 `json:"SharedSkew"`

	// InstrBurst is the probability an instruction fetch re-references
	// one of the core's recently fetched blocks instead of drawing fresh
	// from the footprint. Zipf draws are memoryless; real instruction
	// streams execute loops, so blocks see temporal bursts that keep the
	// resident working set defended in the LRU. 0 disables bursts.
	InstrBurst float64 `json:"InstrBurst"`

	// PrivateSeqFrac is the fraction of private accesses that stream
	// sequentially (DSS table scans, em3d remote-edge walks).
	PrivateSeqFrac float64 `json:"PrivateSeqFrac"`

	// SharedWriteFrac is the probability a shared-RW access is a store
	// (shared data in servers is mostly read-write, Figure 2).
	SharedWriteFrac float64 `json:"SharedWriteFrac"`
	// PrivateWriteFrac is the store probability for private data.
	PrivateWriteFrac float64 `json:"PrivateWriteFrac"`

	// NeighborSharing switches shared-RW data from universal sharing to
	// producer-consumer ring pairs (em3d's two-sharer clusters in
	// Figure 2b).
	NeighborSharing bool `json:"NeighborSharing"`

	// MixedHotPages is the number of pages at the hot end of the shared
	// region that also hold a single core's private lines;
	// MixedPrivFrac is the fraction of a core's private accesses
	// redirected to those lines. Together they reproduce §5.2: 6-26% of
	// accesses touch multi-class pages, yet under 0.75% of accesses get
	// misclassified (the pages are dominated by their shared lines and
	// classified shared).
	MixedHotPages int     `json:"MixedHotPages"`
	MixedPrivFrac float64 `json:"MixedPrivFrac"`

	// BusyPerRef is the mean number of busy (IPC-1) cycles between a
	// core's L2 references: the workload's memory intensity. At most
	// MaxBusyPerRef.
	BusyPerRef int `json:"BusyPerRef"`

	// OffChipMLP is the memory-level parallelism of off-chip misses
	// (out-of-order cores overlap independent misses; scans overlap
	// more).
	OffChipMLP float64 `json:"OffChipMLP"`

	// MigrationPeriod, when positive, rotates the thread-to-core
	// assignment every MigrationPeriod references per core: thread
	// (c+k) mod Cores runs on core c after k rotations. This exercises
	// R-NUCA's thread-migration path (§4.3): the OS detects that the
	// owning thread moved, re-owns its private pages at the new core, and
	// invalidates the old copies — without demoting the pages to shared.
	// 0 disables migration (threads are pinned).
	MigrationPeriod int `json:"MigrationPeriod"`

	// Seed gives each workload its own deterministic stream family.
	Seed uint64 `json:"Seed"`
}

// MaxBusyPerRef caps Spec.BusyPerRef at 64 times the catalog's largest
// (28, OLTP-Oracle and DSS-Qry8). A core's busy count per reference
// then stays below 2^12, which a Tape packs, and the generator's
// uniform draw over [b/2, 3b/2] cannot overflow.
const MaxBusyPerRef = 64 * 28

// Validate reports specification errors.
func (s Spec) Validate() error {
	sum := s.FracInstr + s.FracPrivate + s.FracSharedRW + s.FracSharedRO
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: class mix sums to %v", s.Name, sum)
	}
	if s.Cores <= 0 {
		return fmt.Errorf("workload %s: cores %d", s.Name, s.Cores)
	}
	if s.InstrFootprint <= 0 || s.PrivatePerCore <= 0 || s.SharedFootprint <= 0 {
		return fmt.Errorf("workload %s: non-positive footprint", s.Name)
	}
	// Each footprint must fit its address region (generator.go's layout);
	// a larger one would alias into the next region.
	for _, r := range []struct {
		name        string
		size, limit int64
	}{
		{"instruction", s.InstrFootprint, sharedBase - instrBase},
		{"private", s.PrivatePerCore, privateStep},
		{"shared", s.SharedFootprint, sharedROBase - sharedBase},
		{"shared read-only", s.SharedROFootprint, privateBase - sharedROBase},
	} {
		if r.size > r.limit {
			return fmt.Errorf("workload %s: %s footprint %d exceeds its %d-byte region",
				s.Name, r.name, r.size, r.limit)
		}
	}
	if s.BusyPerRef <= 0 || s.BusyPerRef > MaxBusyPerRef {
		return fmt.Errorf("workload %s: BusyPerRef %d outside 1..%d", s.Name, s.BusyPerRef, MaxBusyPerRef)
	}
	if s.OffChipMLP < 1 {
		return fmt.Errorf("workload %s: OffChipMLP %v < 1", s.Name, s.OffChipMLP)
	}
	if s.MixedHotPages < 0 || s.MixedPrivFrac < 0 || s.MixedPrivFrac >= 1 {
		return fmt.Errorf("workload %s: mixed-page parameters out of range", s.Name)
	}
	if s.PrivateFootprints != nil {
		if len(s.PrivateFootprints) != s.Cores {
			return fmt.Errorf("workload %s: %d per-thread footprints for %d cores",
				s.Name, len(s.PrivateFootprints), s.Cores)
		}
		for i, f := range s.PrivateFootprints {
			if f <= 0 {
				return fmt.Errorf("workload %s: thread %d footprint %d", s.Name, i, f)
			}
			if f > privateStep {
				return fmt.Errorf("workload %s: thread %d footprint exceeds region size", s.Name, i)
			}
		}
		if s.MigrationPeriod > 0 {
			return fmt.Errorf("workload %s: heterogeneous footprints incompatible with migration", s.Name)
		}
	}
	return nil
}
