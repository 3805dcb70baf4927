package design

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

func chassis16() *sim.Chassis { return sim.NewChassis(sim.Config16()) }

func load(core int, addr uint64, class cache.Class) trace.Ref {
	return trace.Ref{Core: core, Thread: core, Kind: trace.Load, Addr: addr, Class: class, Busy: 1}
}

func store(core int, addr uint64, class cache.Class) trace.Ref {
	return trace.Ref{Core: core, Thread: core, Kind: trace.Store, Addr: addr, Class: class, Busy: 1}
}

func ifetch(core int, addr uint64) trace.Ref {
	return trace.Ref{Core: core, Thread: core, Kind: trace.IFetch, Addr: addr, Class: cache.ClassInstruction, Busy: 1}
}

// Once the directories' tables have grown to hold the working set,
// Private.Access allocates nothing: L1 and L2 directory transactions,
// their invalidation lists, write upgrades and L1 evictions included.
func TestPrivateAccessDoesNotAllocate(t *testing.T) {
	d := NewPrivate(chassis16())
	// 3000 blocks overflow every core's L1, so L1 evictions empty L1
	// directory entries; they all fit in each private L2 slice.
	const blocks = 3000
	pass := func() {
		for b := uint64(0); b < blocks; b++ {
			c := int(b % 16)
			addr := 0x100000 + b*64
			d.Access(load(c, addr, cache.ClassShared))
			d.Access(load((c+3)%16, addr, cache.ClassShared))
			d.Access(store((c+7)%16, addr, cache.ClassShared)) // invalidates both readers
			d.Access(load(c, addr, cache.ClassShared))         // served by the new owner
			d.Access(store(c, addr, cache.ClassShared))        // local write upgrade
		}
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Fatalf("%v allocations per pass of %d accesses", allocs, 5*blocks)
	}
	if err := d.Directory().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ---- Shared design ----

func TestSharedSingleLocationPerBlock(t *testing.T) {
	ch := chassis16()
	d := NewShared(ch)
	addr := uint64(0xABC0000)
	// All 16 cores read the same block: it must live in exactly one slice.
	for c := 0; c < 16; c++ {
		d.Access(load(c, addr, cache.ClassShared))
	}
	resident := 0
	for tl := 0; tl < 16; tl++ {
		if d.SliceOccupancy(noc.TileID(tl)) > 0 {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("shared block resident in %d slices, want 1", resident)
	}
}

func TestSharedHitCheaperThanMiss(t *testing.T) {
	ch := chassis16()
	d := NewShared(ch)
	addr := uint64(0xABC0000)
	miss := d.Access(load(0, addr, cache.ClassShared))
	hit := d.Access(load(0, addr+1, cache.ClassShared)) // same block
	if !miss.OffChipMiss || miss.OffChip == 0 {
		t.Fatalf("first access should miss off-chip: %+v", miss)
	}
	if hit.OffChipMiss || hit.L2 == 0 || hit.Total() >= miss.Total() {
		t.Fatalf("second access should be a cheaper L2 hit: %+v vs %+v", hit, miss)
	}
}

func TestSharedL1ToL1Transfer(t *testing.T) {
	ch := chassis16()
	d := NewShared(ch)
	addr := uint64(0xABC0000)
	d.Access(store(3, addr, cache.ClassShared)) // dirty in core 3's L1
	got := d.Access(load(7, addr, cache.ClassShared))
	if got.L1toL1 == 0 {
		t.Fatalf("read after remote dirty write must be L1-to-L1: %+v", got)
	}
}

func TestSharedHomeIsRequestorIndependent(t *testing.T) {
	ch := chassis16()
	d := NewShared(ch)
	addr := cache.Addr(0xDEF0000)
	h := d.home(addr)
	for c := 0; c < 16; c++ {
		if d.home(addr) != h {
			t.Fatal("home moved")
		}
	}
}

// ---- Private design ----

func TestPrivateLocalHitAfterFirstAccess(t *testing.T) {
	ch := chassis16()
	d := NewPrivate(ch)
	addr := uint64(0x5000000)
	first := d.Access(load(2, addr, cache.ClassPrivate))
	if !first.OffChipMiss {
		t.Fatalf("cold access should go off-chip: %+v", first)
	}
	second := d.Access(load(2, addr, cache.ClassPrivate))
	if second.L2 != float64(ch.Cfg.L2HitCycles) {
		t.Fatalf("local hit should cost exactly L2HitCycles: %+v", second)
	}
}

func TestPrivateRemoteFetchThreeHop(t *testing.T) {
	ch := chassis16()
	d := NewPrivate(ch)
	addr := uint64(0x5000000)
	d.Access(load(2, addr, cache.ClassShared))
	// A different core misses locally and fetches from tile 2's slice.
	got := d.Access(load(9, addr, cache.ClassShared))
	if got.L2Coh == 0 || got.OffChipMiss {
		t.Fatalf("remote fetch must be an on-chip coherence transfer: %+v", got)
	}
	// Both tiles now cache the block (replication in the private design).
	r2 := d.Access(load(2, addr, cache.ClassShared))
	r9 := d.Access(load(9, addr, cache.ClassShared))
	if r2.L2 == 0 || r9.L2 == 0 {
		t.Fatalf("both cores should hit locally now: %+v %+v", r2, r9)
	}
}

func TestPrivateWriteInvalidatesReplicas(t *testing.T) {
	ch := chassis16()
	d := NewPrivate(ch)
	addr := uint64(0x5000000)
	d.Access(load(2, addr, cache.ClassShared))
	d.Access(load(9, addr, cache.ClassShared))
	// Core 2 writes: core 9's copy must be gone.
	w := d.Access(store(2, addr, cache.ClassShared))
	if w.L2Coh == 0 {
		t.Fatalf("upgrade with remote sharers must pay coherence: %+v", w)
	}
	if d.SliceOccupancy(9) != 0 {
		t.Fatal("core 9's replica survived the write")
	}
	if err := d.Directory().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateDirectoryStaysConsistent(t *testing.T) {
	ch := chassis16()
	d := NewPrivate(ch)
	// Mixed traffic over a small block set to force evictions and
	// invalidations, then audit.
	for i := 0; i < 20000; i++ {
		core := i % 16
		addr := uint64(0x5000000 + (i*7919)%4096*64)
		if i%3 == 0 {
			d.Access(store(core, addr, cache.ClassShared))
		} else {
			d.Access(load(core, addr, cache.ClassShared))
		}
	}
	if err := d.Directory().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ---- ASR ----

func TestASRProbabilityZeroDropsReplicas(t *testing.T) {
	ch := chassis16()
	d := NewASR(ch, 0, 1)
	addr := uint64(0x5000000)
	d.Access(load(2, addr, cache.ClassShared))
	// Remote clean fetch with p=0: core 9 must NOT keep a local copy.
	d.Access(load(9, addr, cache.ClassShared))
	if d.SliceOccupancy(9) != 0 {
		t.Fatal("p=0 ASR kept a local replica")
	}
	// p=1 behaves like the private design.
	d1 := NewASR(chassis16(), 1, 1)
	d1.Access(load(2, addr, cache.ClassShared))
	d1.Access(load(9, addr, cache.ClassShared))
	if d1.SliceOccupancy(9) != 1 {
		t.Fatal("p=1 ASR dropped the local replica")
	}
}

func TestASRAlwaysKeepsMemoryFetches(t *testing.T) {
	ch := chassis16()
	d := NewASR(ch, 0, 1)
	addr := uint64(0x5000000)
	d.Access(load(4, addr, cache.ClassShared)) // from memory
	if d.SliceOccupancy(4) != 1 {
		t.Fatal("memory fetch must allocate locally even at p=0")
	}
}

func TestASRPrivateDataUnaffected(t *testing.T) {
	d := NewASR(chassis16(), 0, 1)
	addr := uint64(0x5000000)
	d.Access(load(2, addr, cache.ClassPrivate))
	d.Access(load(9, addr, cache.ClassPrivate)) // remote fetch, but private class
	if d.SliceOccupancy(9) != 1 {
		t.Fatal("ASR must not drop private data")
	}
}

func TestAdaptiveASRAdjustsProbability(t *testing.T) {
	ch := chassis16()
	d := NewAdaptiveASR(ch, 1)
	p0 := d.Prob()
	// Heavy remote-shared traffic with stable misses: p should rise.
	// The block stride (63) is coprime with the core count so every
	// block is genuinely shared across cores.
	for i := 0; i < 4000; i++ {
		addr := uint64(0x5000000 + (i%63)*64)
		d.Access(load(i%16, addr, cache.ClassShared))
	}
	d.Advance(1)
	for i := 0; i < 4000; i++ {
		addr := uint64(0x5000000 + (i%63)*64)
		d.Access(load(i%16, addr, cache.ClassShared))
	}
	d.Advance(1)
	if d.Prob() <= p0 {
		t.Fatalf("adaptive ASR should raise p under remote-fetch pressure: %v -> %v", p0, d.Prob())
	}
	if d.Name() != "A" {
		t.Fatalf("adaptive name = %q", d.Name())
	}
	if NewASR(chassis16(), 0.25, 1).Name() != "A0.25" {
		t.Fatal("static ASR name wrong")
	}
}

// ---- R-NUCA ----

func TestReactivePrivatePlacementLocalOnly(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	addr := uint64(0x5000000)
	d.Access(load(6, addr, cache.ClassPrivate))
	d.Access(load(6, addr+64, cache.ClassPrivate))
	for tl := 0; tl < 16; tl++ {
		want := 0
		if tl == 6 {
			want = 2
		}
		if got := d.SliceOccupancy(noc.TileID(tl)); got != want {
			t.Fatalf("slice %d holds %d blocks, want %d", tl, got, want)
		}
	}
	// Second access is a pure local hit.
	hit := d.Access(load(6, addr, cache.ClassPrivate))
	if hit.L2 != float64(ch.Cfg.L2HitCycles) {
		t.Fatalf("private hit cost %v", hit.L2)
	}
}

func TestReactiveSharedSingleLocation(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	addr := uint64(0x8000000)
	// Two different threads touch the page -> classified shared.
	d.Access(load(1, addr, cache.ClassShared))
	d.Access(load(5, addr, cache.ClassShared))
	d.Access(load(9, addr, cache.ClassShared))
	if got := d.OccupancyByClass(cache.ClassShared); got != 1 {
		t.Fatalf("shared block occupies %d lines chip-wide, want 1", got)
	}
}

func TestReactiveInstructionReplication(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	addr := uint64(0x2000000)
	// All cores fetch the same instruction block: replicas bounded by the
	// chip's cluster count (16 tiles / size-4 clusters = 4 replicas).
	for c := 0; c < 16; c++ {
		d.Access(ifetch(c, addr))
	}
	got := d.OccupancyByClass(cache.ClassInstruction)
	want := d.Placement().ReplicationDegree(addr)
	if got != want {
		t.Fatalf("instruction replicas = %d, want %d", got, want)
	}
	if want != 4 {
		t.Fatalf("replication degree = %d, want 4 on a 16-tile chip", want)
	}
	// Every fetch must be at most one hop away.
	for c := 0; c < 16; c++ {
		slice := d.Placement().InstructionSlice(noc.TileID(c), addr)
		if ch.Topo.Hops(noc.TileID(c), slice) > 1 {
			t.Fatalf("instruction slice %d more than one hop from core %d", slice, c)
		}
	}
}

func TestReactiveReclassificationPurgesPreviousOwner(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	page := uint64(0x8000000)
	// Core 1 (thread 1) makes the page private with several blocks.
	for b := uint64(0); b < 8; b++ {
		d.Access(load(1, page+b*64, cache.ClassShared))
	}
	if d.SliceOccupancy(1) != 8 {
		t.Fatalf("owner slice holds %d blocks, want 8", d.SliceOccupancy(1))
	}
	// A different thread touches the page: private -> shared, purge.
	got := d.Access(load(9, page, cache.ClassShared))
	if got.Reclass == 0 {
		t.Fatalf("re-classification must charge the Reclass bucket: %+v", got)
	}
	if d.SliceOccupancy(1) != 0 {
		t.Fatalf("previous owner still holds %d blocks after purge", d.SliceOccupancy(1))
	}
	if d.ReclassCount() != 1 {
		t.Fatalf("reclass count = %d", d.ReclassCount())
	}
	// Subsequent accesses go to the address-interleaved home.
	d.Access(load(3, page, cache.ClassShared))
	if d.OccupancyByClass(cache.ClassShared) == 0 {
		t.Fatal("shared placement missing after re-classification")
	}
}

// A re-classification purges exactly the page's blocks: the blocks on
// either side of the page boundary stay in the previous owner's slice and
// L1, and the charge counts only the purged blocks.
func TestReactivePurgeIsPageScoped(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	page := uint64(0x8000000)
	pageBytes := uint64(ch.Cfg.PageBytes)
	before, after := page-64, page+pageBytes
	for _, a := range []uint64{before, page, page + 64, page + pageBytes - 64, after} {
		d.Access(load(1, a, cache.ClassPrivate))
	}
	got := d.Access(load(9, page+128, cache.ClassShared))
	// The page's three blocks sat in both slice 1 and core 1's L1D.
	want := float64(ch.Cfg.PoisonCycles) + 6*float64(ch.Cfg.PurgePerBlockCycles)
	if got.Reclass != want {
		t.Fatalf("reclass charge %v, want %v", got.Reclass, want)
	}
	if d.SliceOccupancy(1) != 2 {
		t.Fatalf("previous owner holds %d blocks, want the 2 outside the page", d.SliceOccupancy(1))
	}
	for _, a := range []uint64{before, after} {
		if _, ok := ch.L1D[1].Peek(cache.Addr(a)); !ok {
			t.Fatalf("block %#x outside the page left core 1's L1", a)
		}
	}
	if err := ch.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestReactiveThreadMigrationKeepsPrivate(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	page := uint64(0x8000000)
	// Thread 42 on core 1.
	r := trace.Ref{Core: 1, Thread: 42, Kind: trace.Load, Addr: page, Class: cache.ClassPrivate, Busy: 1}
	d.Access(r)
	// Thread 42 migrates to core 6.
	r2 := trace.Ref{Core: 6, Thread: 42, Kind: trace.Load, Addr: page, Class: cache.ClassPrivate, Busy: 1}
	got := d.Access(r2)
	if got.Reclass == 0 {
		t.Fatalf("migration must pay a purge: %+v", got)
	}
	if d.SliceOccupancy(1) != 0 {
		t.Fatal("old owner's block survived migration")
	}
	// Page must still be private (now to core 6): next access local hit.
	hit := d.Access(r2)
	if hit.L2 != float64(ch.Cfg.L2HitCycles) {
		t.Fatalf("post-migration access should hit locally: %+v", hit)
	}
}

func TestReactiveStoreToInstructionPageDereplicates(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	addr := uint64(0x2000000)
	for c := 0; c < 16; c++ {
		d.Access(ifetch(c, addr))
	}
	if d.OccupancyByClass(cache.ClassInstruction) != 4 {
		t.Fatal("expected 4 replicas before the store")
	}
	got := d.Access(store(0, addr, cache.ClassShared))
	if got.Reclass == 0 {
		t.Fatalf("store to instruction page must purge replicas: %+v", got)
	}
	if d.OccupancyByClass(cache.ClassInstruction) != 0 {
		t.Fatal("instruction replicas survived de-replication")
	}
}

func TestReactiveClassifierReportsPlacement(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	d.Access(ifetch(0, 0x2000000))
	if d.LastPlacementClass() != cache.ClassInstruction {
		t.Fatal("classifier should report instruction")
	}
	d.Access(load(0, 0x5000000, cache.ClassPrivate))
	if d.LastPlacementClass() != cache.ClassPrivate {
		t.Fatal("classifier should report private")
	}
}

// ---- Ideal ----

func TestIdealLatencyBounds(t *testing.T) {
	ch := chassis16()
	d := NewIdeal(ch)
	addr := uint64(0x9000000)
	miss := d.Access(load(0, addr, cache.ClassShared))
	maxMiss := float64(ch.Cfg.L2HitCycles + ch.Cfg.MemAccessCycles)
	if miss.Total() > maxMiss {
		t.Fatalf("ideal miss cost %v exceeds %v", miss.Total(), maxMiss)
	}
	hit := d.Access(load(15, addr, cache.ClassShared))
	if hit.L2 != float64(ch.Cfg.L2HitCycles) {
		t.Fatalf("ideal hit must cost local latency from any core: %+v", hit)
	}
	if st := ch.Net.TotalStats(); st.Messages != 0 {
		t.Fatalf("ideal design generated %d network messages", st.Messages)
	}
}

// ---- Cross-design integration ----

func TestAllDesignsRunCleanAndOrdered(t *testing.T) {
	// A small synthetic mix driven through every design: all must
	// complete, produce positive CPI, and keep the coherence and
	// occupancy invariants.
	mkDesign := []func(*sim.Chassis) sim.Design{
		func(ch *sim.Chassis) sim.Design { return NewPrivate(ch) },
		func(ch *sim.Chassis) sim.Design { return NewShared(ch) },
		func(ch *sim.Chassis) sim.Design { return NewReactive(ch) },
		func(ch *sim.Chassis) sim.Design { return NewIdeal(ch) },
		func(ch *sim.Chassis) sim.Design { return NewASR(ch, 0.5, 7) },
	}
	for _, mk := range mkDesign {
		ch := chassis16()
		d := mk(ch)
		total := 0.0
		for i := 0; i < 30000; i++ {
			core := i % 16
			var r trace.Ref
			switch i % 5 {
			case 0:
				r = ifetch(core, 0x2000000+uint64(i%512)*64)
			case 1, 2:
				r = load(core, uint64(0x10000000)+uint64(core)*0x100000+uint64(i%256)*64, cache.ClassPrivate)
			case 3:
				r = load(core, 0x8000000+uint64(i%1024)*64, cache.ClassShared)
			default:
				r = store(core, 0x8000000+uint64(i%1024)*64, cache.ClassShared)
			}
			c := d.Access(r)
			if c.Total() < 0 {
				t.Fatalf("%s: negative cost %+v", d.Name(), c)
			}
			total += c.Total()
		}
		if total <= 0 {
			t.Fatalf("%s: zero total latency", d.Name())
		}
		if err := ch.L1Dir.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
	}
}

func TestDesignResets(t *testing.T) {
	ch := chassis16()
	for _, d := range []sim.Design{NewPrivate(ch), NewShared(ch), NewReactive(ch), NewIdeal(ch), NewASR(ch, 0.5, 7)} {
		d.Access(load(0, 0x8000000, cache.ClassShared))
		d.Reset()
		// After reset, the same access must be a cold miss again.
		got := d.Access(load(0, 0x8000000, cache.ClassShared))
		if !got.OffChipMiss {
			t.Fatalf("%s: state survived Reset", d.Name())
		}
		ch.Reset()
	}
}

// R-NUCA never needs L2 coherence: modifiable blocks have exactly one
// location. Audit after mixed traffic that every private/shared block
// lives in at most one slice.
func TestReactiveNoL2CoherenceInvariant(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	for i := 0; i < 40000; i++ {
		core := i % 16
		switch i % 4 {
		case 0:
			d.Access(ifetch(core, 0x2000000+uint64(i%2048)*64))
		case 1:
			d.Access(load(core, uint64(0x10000000)+uint64(core)*0x1000000+uint64(i%512)*64, cache.ClassPrivate))
		case 2:
			d.Access(load(core, 0x8000000+uint64(i%4096)*64, cache.ClassShared))
		default:
			d.Access(store(core, 0x8000000+uint64(i%4096)*64, cache.ClassShared))
		}
	}
	// Count chip-wide locations of every resident non-instruction block.
	locations := map[cache.Addr]int{}
	for tl := 0; tl < 16; tl++ {
		d.l2[tl].ForEach(func(a cache.Addr, line *cache.Line) {
			if line.Class != cache.ClassInstruction {
				locations[a]++
			}
		})
	}
	for a, n := range locations {
		if n > 1 {
			t.Fatalf("modifiable block %#x resident in %d slices", uint64(a), n)
		}
	}
}

// The OS layer inside R-NUCA must classify page-by-page exactly as the
// standalone ospage state machine would.
func TestReactiveOSIntegration(t *testing.T) {
	ch := chassis16()
	d := NewReactive(ch)
	page := uint64(0x8000000)
	d.Access(load(1, page, cache.ClassPrivate))
	e, ok := d.OS().Table.Lookup(d.OS().Table.PageOf(page))
	if !ok || e.Class != cache.ClassPrivate || e.OwnerCID != 1 {
		t.Fatalf("page entry after first touch: %+v", e)
	}
	d.Access(load(2, page, cache.ClassShared))
	e, _ = d.OS().Table.Lookup(d.OS().Table.PageOf(page))
	if e.Class != cache.ClassShared {
		t.Fatalf("page should be shared after second thread: %+v", e)
	}
}
