package workload

// The workload catalog. Mix fractions follow Figure 3 (server workloads
// dominated by instructions and shared read-write data with a significant
// private fraction; DSS and scientific dominated by private data; MIX
// almost entirely private). Footprints follow Figure 4's CDFs read at the
// 90% level. Memory intensity (BusyPerRef) and MLP are set so the CPI
// stacks land in the regimes Figure 7 shows: servers bottlenecked on L2
// latency, DSS/em3d on off-chip streaming, MIX in between.

// OLTPDB2 models TPC-C v3.0 on IBM DB2 v8 ESE (100 warehouses, 64
// clients): instruction-heavy, large universally-shared read-write
// working set — the canonical private-averse server workload.
func OLTPDB2() Spec {
	return Spec{
		Name: "OLTP-DB2", Category: Server, Cores: 16,
		FracInstr: 0.44, FracPrivate: 0.14, FracSharedRW: 0.34, FracSharedRO: 0.08,
		InstrFootprint: 1280 << 10, PrivatePerCore: 320 << 10,
		SharedFootprint: 12 << 20, SharedROFootprint: 3 << 20,
		InstrSkew: 0.8, PrivateSkew: 0.8, SharedSkew: 0.8,
		InstrBurst:     0.75,
		PrivateSeqFrac: 0.05, SharedWriteFrac: 0.5, PrivateWriteFrac: 0.3,
		MixedHotPages: 64, MixedPrivFrac: 0.03,
		BusyPerRef: 24, OffChipMLP: 1.6, Seed: 0xDB2,
	}
}

// OLTPOracle models TPC-C on Oracle 10g (100 warehouses, 16 clients):
// like DB2 but with a hotter instruction set and more private data, which
// tips it shared-averse (Figure 7 groups it with MIX).
func OLTPOracle() Spec {
	return Spec{
		Name: "OLTP-Oracle", Category: Server, Cores: 16,
		FracInstr: 0.50, FracPrivate: 0.24, FracSharedRW: 0.22, FracSharedRO: 0.04,
		InstrFootprint: 512 << 10, PrivatePerCore: 448 << 10,
		SharedFootprint: 8 << 20, SharedROFootprint: 1 << 20,
		InstrSkew: 0.85, PrivateSkew: 0.9, SharedSkew: 0.8,
		InstrBurst:     0.75,
		PrivateSeqFrac: 0.05, SharedWriteFrac: 0.4, PrivateWriteFrac: 0.3,
		MixedHotPages: 48, MixedPrivFrac: 0.025,
		BusyPerRef: 28, OffChipMLP: 1.6, Seed: 0x04AC1E,
	}
}

// Apache models SPECweb99 on Apache 2.0 (16K connections, fastCGI): the
// largest instruction footprint of the suite and a sizeable shared
// working set of connection state.
func Apache() Spec {
	return Spec{
		Name: "Apache", Category: Server, Cores: 16,
		FracInstr: 0.54, FracPrivate: 0.10, FracSharedRW: 0.27, FracSharedRO: 0.09,
		InstrFootprint: 1536 << 10, PrivatePerCore: 192 << 10,
		SharedFootprint: 10 << 20, SharedROFootprint: 3 << 20,
		InstrSkew: 0.75, PrivateSkew: 0.8, SharedSkew: 0.75,
		InstrBurst:     0.75,
		PrivateSeqFrac: 0.05, SharedWriteFrac: 0.45, PrivateWriteFrac: 0.25,
		MixedHotPages: 64, MixedPrivFrac: 0.04,
		BusyPerRef: 22, OffChipMLP: 1.6, Seed: 0xA9AC4E,
	}
}

// DSSQry6 models TPC-H query 6 on DB2 (480MB buffer pool): a pure
// scan-heavy aggregation query streaming a multi-gigabyte table through
// each core's private buffer-pool partition.
func DSSQry6() Spec {
	return Spec{
		Name: "DSS-Qry6", Category: Server, Cores: 16,
		FracInstr: 0.20, FracPrivate: 0.62, FracSharedRW: 0.12, FracSharedRO: 0.06,
		InstrFootprint: 256 << 10, PrivatePerCore: 48 << 20,
		SharedFootprint: 4 << 20, SharedROFootprint: 1 << 20,
		InstrSkew: 0.9, PrivateSkew: 0.3, SharedSkew: 0.75,
		InstrBurst:     0.65,
		PrivateSeqFrac: 0.85, SharedWriteFrac: 0.3, PrivateWriteFrac: 0.1,
		MixedHotPages: 32, MixedPrivFrac: 0.008,
		BusyPerRef: 26, OffChipMLP: 4.0, Seed: 0xD5506,
	}
}

// DSSQry8 models TPC-H query 8: scans joined with hash tables, giving a
// larger instruction footprint and more reuse than query 6.
func DSSQry8() Spec {
	return Spec{
		Name: "DSS-Qry8", Category: Server, Cores: 16,
		FracInstr: 0.28, FracPrivate: 0.54, FracSharedRW: 0.12, FracSharedRO: 0.06,
		InstrFootprint: 256 << 10, PrivatePerCore: 32 << 20,
		SharedFootprint: 5 << 20, SharedROFootprint: 1 << 20,
		InstrSkew: 0.9, PrivateSkew: 0.45, SharedSkew: 0.75,
		InstrBurst:     0.65,
		PrivateSeqFrac: 0.7, SharedWriteFrac: 0.3, PrivateWriteFrac: 0.12,
		MixedHotPages: 32, MixedPrivFrac: 0.01,
		BusyPerRef: 28, OffChipMLP: 3.5, Seed: 0xD5508,
	}
}

// DSSQry13 models TPC-H query 13: outer-join heavy, between queries 6 and
// 8 in locality.
func DSSQry13() Spec {
	return Spec{
		Name: "DSS-Qry13", Category: Server, Cores: 16,
		FracInstr: 0.26, FracPrivate: 0.57, FracSharedRW: 0.11, FracSharedRO: 0.06,
		InstrFootprint: 256 << 10, PrivatePerCore: 40 << 20,
		SharedFootprint: 5 << 20, SharedROFootprint: 1 << 20,
		InstrSkew: 0.9, PrivateSkew: 0.4, SharedSkew: 0.75,
		InstrBurst:     0.65,
		PrivateSeqFrac: 0.75, SharedWriteFrac: 0.3, PrivateWriteFrac: 0.1,
		MixedHotPages: 32, MixedPrivFrac: 0.009,
		BusyPerRef: 27, OffChipMLP: 3.5, Seed: 0xD5513,
	}
}

// Em3d models the em3d electromagnetic kernel (768K nodes, degree 2, 15%
// remote): private node lists streamed each iteration plus
// producer-consumer boundary exchange between ring neighbors (the
// two-sharer bubbles of Figure 2b). Its instructions fit in the L1I, so
// the L2 instruction fraction is tiny.
func Em3d() Spec {
	return Spec{
		Name: "em3d", Category: Scientific, Cores: 16,
		FracInstr: 0.02, FracPrivate: 0.83, FracSharedRW: 0.13, FracSharedRO: 0.02,
		InstrFootprint: 48 << 10, PrivatePerCore: 24 << 20,
		SharedFootprint: 4 << 20, SharedROFootprint: 1 << 20,
		InstrSkew: 1.0, PrivateSkew: 0.2, SharedSkew: 0.5,
		InstrBurst:     0.65,
		PrivateSeqFrac: 0.8, SharedWriteFrac: 0.45, PrivateWriteFrac: 0.35,
		NeighborSharing: true,
		MixedHotPages:   16, MixedPrivFrac: 0.004,
		BusyPerRef: 24, OffChipMLP: 4.0, Seed: 0xE43D,
	}
}

// MIX models the SPEC CPU2000 multi-programmed mix (two copies each of
// gcc, twolf, mcf, art on the 8-core CMP with 3MB slices): no sharing
// beyond a little read-only OS text, private working sets that fit a 3MB
// local slice but pay remote-hit latency when spread by the shared
// design — the canonical shared-averse workload.
func MIX() Spec {
	return Spec{
		Name: "MIX", Category: MultiProgrammed, Cores: 8,
		FracInstr: 0.03, FracPrivate: 0.93, FracSharedRW: 0.01, FracSharedRO: 0.03,
		InstrFootprint: 96 << 10, PrivatePerCore: 2048 << 10,
		SharedFootprint: 256 << 10, SharedROFootprint: 512 << 10,
		InstrSkew: 1.0, PrivateSkew: 0.9, SharedSkew: 0.5,
		InstrBurst:     0.65,
		PrivateSeqFrac: 0.1, SharedWriteFrac: 0.2, PrivateWriteFrac: 0.3,
		MixedHotPages: 8, MixedPrivFrac: 0.004,
		BusyPerRef: 26, OffChipMLP: 2.0, Seed: 0x313C,
	}
}

// MIXHetero is a heterogeneous variant of MIX for the §4.4 private-cluster
// extension: half the threads run cache-hungry jobs (mcf/art-like, 4MB)
// that overflow a 3MB slice, the other half run compact jobs (gcc/twolf-
// like, 256KB) that leave their slices mostly idle. Size-1 private
// clusters strand the idle capacity; larger fixed-center clusters let the
// big threads spill into it.
func MIXHetero() Spec {
	s := MIX()
	s.Name = "MIX-hetero"
	s.Seed = 0x4E7E
	s.PrivateFootprints = []int64{
		4 << 20, 256 << 10, 4 << 20, 256 << 10,
		4 << 20, 256 << 10, 4 << 20, 256 << 10,
	}
	// Flatter reuse than homogeneous MIX: the big jobs' hot sets
	// (~3.2MB at this skew) overflow a 3MB slice but fit once spilled
	// into an idle neighbor.
	s.PrivateSkew = 0.55
	return s
}

// MIXMigrating is MIX with OS rescheduling: the thread-to-core assignment
// rotates every 8k references per core, exercising R-NUCA's
// migration-detection path (§4.3) under load.
func MIXMigrating() Spec {
	s := MIX()
	s.Name = "MIX-migrating"
	s.Seed = 0x317A7E
	s.MigrationPeriod = 8_000
	return s
}

// Primary returns the paper's eight primary workloads (Table 1 right).
func Primary() []Spec {
	return []Spec{
		OLTPDB2(), OLTPOracle(), Apache(),
		DSSQry6(), DSSQry8(), DSSQry13(),
		Em3d(), MIX(),
	}
}

// ByName returns the named spec from the primary and extended sets.
func ByName(name string) (Spec, bool) {
	for _, s := range append(Primary(), Extended()...) {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Extended returns the additional workloads Figure 2 includes beyond the
// primary set: more TPC-H queries, SPECweb on Zeus, and the moldyn, ocean
// and sparse scientific kernels. They reuse primary templates with varied
// parameters, the same way the paper uses them only for the
// characterization scatter plot.
func Extended() []Spec {
	q11 := DSSQry8()
	q11.Name, q11.Seed = "DSS-Qry11", 0xD5511
	q11.FracInstr, q11.FracPrivate = 0.30, 0.52
	q16 := DSSQry13()
	q16.Name, q16.Seed = "DSS-Qry16", 0xD5516
	q16.PrivatePerCore = 24 << 20
	q20 := DSSQry6()
	q20.Name, q20.Seed = "DSS-Qry20", 0xD5520
	q20.FracInstr, q20.FracPrivate = 0.22, 0.60

	zeus := Apache()
	zeus.Name, zeus.Seed = "Zeus", 0x2E05
	zeus.FracInstr, zeus.FracSharedRW, zeus.FracSharedRO = 0.50, 0.34, 0.06
	zeus.InstrFootprint = 768 << 10

	moldyn := Em3d()
	moldyn.Name, moldyn.Seed = "moldyn", 0x301D
	moldyn.FracPrivate, moldyn.FracSharedRW = 0.78, 0.18
	moldyn.SharedWriteFrac = 0.5

	ocean := Em3d()
	ocean.Name, ocean.Seed = "ocean", 0x0CEA
	ocean.PrivatePerCore = 32 << 20
	ocean.PrivateSeqFrac = 0.9

	sparse := Em3d()
	sparse.Name, sparse.Seed = "sparse", 0x59A5
	sparse.FracPrivate, sparse.FracSharedRW = 0.86, 0.10
	sparse.PrivateSkew = 0.1

	return []Spec{q11, q16, q20, zeus, moldyn, ocean, sparse}
}
