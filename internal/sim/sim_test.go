package sim

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

func TestConfigsValidate(t *testing.T) {
	if err := Config16().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Config8().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config16()
	bad.Cores = 15
	if bad.Validate() == nil {
		t.Fatal("core/grid mismatch accepted")
	}
	bad = Config16()
	bad.WindowCycles = 0
	if bad.Validate() == nil {
		t.Fatal("zero window accepted")
	}
	bad = Config16()
	bad.InstrClusterSize = 0
	if bad.Validate() == nil {
		t.Fatal("zero cluster size accepted")
	}
}

func TestInterleaveOffset(t *testing.T) {
	// 1MB 16-way 64B: 1024 sets -> 10 set bits + 6 block bits = 16.
	if got := Config16().InterleaveOffset(); got != 16 {
		t.Fatalf("16-core interleave offset = %d, want 16", got)
	}
	// 3MB 12-way 64B: 4096 sets -> 12 + 6 = 18.
	if got := Config8().InterleaveOffset(); got != 18 {
		t.Fatalf("8-core interleave offset = %d, want 18", got)
	}
}

func TestBucketStrings(t *testing.T) {
	names := map[Bucket]string{
		BucketBusy: "Busy", BucketL1toL1: "L1-to-L1", BucketL2: "L2",
		BucketL2Coh: "L2-coherence", BucketOffChip: "Off-chip",
		BucketOther: "Other", BucketReclass: "Re-classification",
	}
	for b, want := range names {
		if b.String() != want {
			t.Errorf("%d -> %q, want %q", b, b.String(), want)
		}
	}
}

func TestCostTotal(t *testing.T) {
	c := Cost{L1toL1: 1, L2: 2, L2Coh: 3, OffChip: 4, Reclass: 5}
	if c.Total() != 15 {
		t.Fatalf("total = %v", c.Total())
	}
}

func TestChassisHonorsMemoryLatencyConfig(t *testing.T) {
	cfg := Config16()
	cfg.MemAccessCycles = 500
	ch := NewChassis(cfg)
	if got := ch.Mem.Config().AccessCycles; got != 500 {
		t.Fatalf("memory model built with %d-cycle access, want 500", got)
	}
	cfg.PageBytes = 4096
	ch = NewChassis(cfg)
	if got := ch.Mem.Config().PageBytes; got != 4096 {
		t.Fatalf("memory model page size %d, want 4096", got)
	}
}

func TestChassisL1Service(t *testing.T) {
	ch := NewChassis(Config16())
	mkRef := func(core int, kind trace.Kind, addr uint64) trace.Ref {
		return trace.Ref{Core: core, Thread: core, Kind: kind, Addr: addr, Class: cache.ClassShared, Busy: 1}
	}
	// Core 0 writes: becomes dirty L1 owner.
	info := ch.L1Service(0, mkRef(0, trace.Store, 0x1000))
	if info.RemoteOwner != -1 {
		t.Fatalf("first write saw remote owner %d", info.RemoteOwner)
	}
	// Core 1 reads: must see core 0 as dirty remote owner.
	info = ch.L1Service(1, mkRef(1, trace.Load, 0x1000))
	if info.RemoteOwner != 0 {
		t.Fatalf("read after remote write: owner = %d, want 0", info.RemoteOwner)
	}
	// Core 2 writes: cores 0 and 1 get invalidated.
	info = ch.L1Service(2, mkRef(2, trace.Store, 0x1000))
	if len(info.Invalidated) != 2 {
		t.Fatalf("write invalidated %v, want cores 0 and 1", info.Invalidated)
	}
	if _, ok := ch.L1D[0].Peek(0x1000); ok {
		t.Fatal("core 0's L1 copy survived invalidation")
	}
	// Instruction fetches go to the L1I.
	ch.L1Service(3, mkRef(3, trace.IFetch, 0x2000))
	if _, ok := ch.L1I[3].Peek(0x2000); !ok {
		t.Fatal("ifetch did not install in L1I")
	}
	if _, ok := ch.L1D[3].Peek(0x2000); ok {
		t.Fatal("ifetch installed in L1D")
	}
	if err := ch.L1Dir.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalFanoutLatency(t *testing.T) {
	ch := NewChassis(Config16())
	if got := ch.InvalFanout(0, nil); got != 0 {
		t.Fatalf("empty fanout = %v", got)
	}
	// Fanout to the diameter tile must dominate a nearby one.
	near := ch.InvalFanout(0, []int{1})
	far := ch.InvalFanout(0, []int{1, 10})
	if far <= near {
		t.Fatalf("farthest member must bound fanout: near=%v far=%v", near, far)
	}
}

// fixedDesign charges a constant cost, for engine accounting tests.
type fixedDesign struct {
	cost Cost
}

func (f *fixedDesign) Name() string          { return "F" }
func (f *fixedDesign) Access(trace.Ref) Cost { return f.cost }
func (f *fixedDesign) Advance(uint64)        {}
func (f *fixedDesign) Reset()                {}

// constStream yields the same ref forever.
type constStream struct{ r trace.Ref }

func (c *constStream) Next() trace.Ref { return c.r }

func TestEngineAccounting(t *testing.T) {
	cfg := Config16()
	ch := NewChassis(cfg)
	d := &fixedDesign{cost: Cost{L2: 10, OffChip: 20}}
	streams := make([]trace.Stream, cfg.Cores)
	for i := range streams {
		streams[i] = &constStream{trace.Ref{
			Core: i, Kind: trace.Load, Addr: uint64(0x100000 + i*64),
			Class: cache.ClassShared, Busy: 5,
		}}
	}
	e := NewEngine(ch, d, streams)
	res := e.Run(0, 1600)
	if res.Refs != 1600 {
		t.Fatalf("refs = %d", res.Refs)
	}
	if res.Instructions != 1600*5 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	// CPI: busy 1.0, L2 10/5 = 2, off-chip 20/5 = 4.
	if res.CPIStack[BucketBusy] != 1 {
		t.Fatalf("busy CPI = %v", res.CPIStack[BucketBusy])
	}
	if res.CPIStack[BucketL2] != 2 {
		t.Fatalf("L2 CPI = %v", res.CPIStack[BucketL2])
	}
	if res.CPIStack[BucketOffChip] != 4 {
		t.Fatalf("off-chip CPI = %v", res.CPIStack[BucketOffChip])
	}
	if res.CPI() != 7 {
		t.Fatalf("total CPI = %v, want 7", res.CPI())
	}
	// Per-class attribution: everything was shared loads.
	if res.ClassCycles[cache.ClassShared][BucketL2] != 2 {
		t.Fatalf("class L2 CPI = %v", res.ClassCycles[cache.ClassShared][BucketL2])
	}
}

func TestEngineStoresGoToOther(t *testing.T) {
	cfg := Config16()
	ch := NewChassis(cfg)
	d := &fixedDesign{cost: Cost{L2: 10}}
	streams := make([]trace.Stream, cfg.Cores)
	for i := range streams {
		streams[i] = &constStream{trace.Ref{
			Core: i, Kind: trace.Store, Addr: uint64(0x100000 + i*64),
			Class: cache.ClassShared, Busy: 5,
		}}
	}
	e := NewEngine(ch, d, streams)
	res := e.Run(0, 160)
	if res.CPIStack[BucketL2] != 0 {
		t.Fatalf("store latency leaked into L2 bucket: %v", res.CPIStack[BucketL2])
	}
	if res.CPIStack[BucketOther] != 2 {
		t.Fatalf("store latency should be in Other: %v", res.CPIStack[BucketOther])
	}
}

func TestEngineMLPScalesOffChip(t *testing.T) {
	cfg := Config16()
	mk := func(mlp float64) Result {
		ch := NewChassis(cfg)
		d := &fixedDesign{cost: Cost{OffChip: 40}}
		streams := make([]trace.Stream, cfg.Cores)
		for i := range streams {
			streams[i] = &constStream{trace.Ref{Core: i, Kind: trace.Load, Addr: 0x100000, Class: cache.ClassPrivate, Busy: 10}}
		}
		e := NewEngine(ch, d, streams)
		e.OffChipMLP = mlp
		return e.Run(0, 160)
	}
	serial := mk(1)
	overlapped := mk(4)
	if overlapped.CPIStack[BucketOffChip]*4 != serial.CPIStack[BucketOffChip] {
		t.Fatalf("MLP scaling wrong: %v vs %v", overlapped.CPIStack[BucketOffChip], serial.CPIStack[BucketOffChip])
	}
}

func TestEngineWarmupNotMeasured(t *testing.T) {
	cfg := Config16()
	ch := NewChassis(cfg)
	d := &fixedDesign{cost: Cost{L2: 10}}
	streams := make([]trace.Stream, cfg.Cores)
	for i := range streams {
		streams[i] = &constStream{trace.Ref{Core: i, Kind: trace.Load, Addr: 0x100000, Class: cache.ClassPrivate, Busy: 5}}
	}
	e := NewEngine(ch, d, streams)
	res := e.Run(800, 160)
	if res.Refs != 160 {
		t.Fatalf("measured refs = %d, want 160", res.Refs)
	}
}

func TestEngineFairScheduling(t *testing.T) {
	// Cores with equal busy advance in lockstep: refs split evenly.
	cfg := Config16()
	ch := NewChassis(cfg)
	counts := make([]int, cfg.Cores)
	d := &fixedDesign{}
	streams := make([]trace.Stream, cfg.Cores)
	for i := range streams {
		i := i
		streams[i] = &funcStream{func() trace.Ref {
			counts[i]++
			return trace.Ref{Core: i, Kind: trace.Load, Addr: 0x1000, Class: cache.ClassPrivate, Busy: 7}
		}}
	}
	e := NewEngine(ch, d, streams)
	e.Run(0, 1600)
	for i, c := range counts {
		if c < 90 || c > 110 {
			t.Fatalf("core %d issued %d refs, want ~100", i, c)
		}
	}
}

type funcStream struct{ fn func() trace.Ref }

func (f *funcStream) Next() trace.Ref { return f.fn() }

func TestEngineRequiresOneStreamPerCore(t *testing.T) {
	cfg := Config16()
	ch := NewChassis(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("stream-count mismatch must panic")
		}
	}()
	NewEngine(ch, &fixedDesign{}, make([]trace.Stream, 3))
}

func TestResultSpeedup(t *testing.T) {
	base := Result{Instructions: 100, Cycles: 200} // CPI 2
	fast := Result{Instructions: 100, Cycles: 160} // CPI 1.6
	if sp := fast.Speedup(base); sp < 0.249 || sp > 0.251 {
		t.Fatalf("speedup = %v, want 0.25", sp)
	}
}
