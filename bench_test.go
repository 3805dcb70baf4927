// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the experiment end to end at a reduced scale), plus
// microbenchmarks of the core mechanisms (rotational interleaving lookup,
// cache operations, L1 directory transactions, OS page translation and
// re-classification purges, torus traversal, workload generation, and
// full-engine throughput per design).
//
// Regenerate everything at publication scale with:
//
//	go run ./cmd/rnuca-figures -scale full
//
// and at benchmark scale with:
//
//	go test -bench=Figure -benchmem
package rnuca_test

import (
	"context"
	"testing"

	"rnuca"
	"rnuca/internal/cache"
	"rnuca/internal/experiments"
	"rnuca/internal/noc"
	"rnuca/internal/ospage"
	rot "rnuca/internal/rnuca"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
	"rnuca/internal/workload"
)

// benchScale keeps figure benchmarks to a few seconds per iteration.
func benchScale() experiments.Scale {
	return experiments.Scale{Warm: 10_000, Measure: 20_000, TraceRefs: 40_000, Batches: 1}
}

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Table1()
		if len(tabs) != 2 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFigure2ReferenceClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if tabs := c.Fig2(); len(tabs) != 2 {
			b.Fatal("fig2 incomplete")
		}
	}
}

func BenchmarkFigure3ReferenceBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig3(); len(t.Rows) != 8 {
			b.Fatal("fig3 incomplete")
		}
	}
}

func BenchmarkFigure4WorkingSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig4(); len(t.Rows) == 0 {
			b.Fatal("fig4 empty")
		}
	}
}

func BenchmarkFigure5Reuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig5(); len(t.Rows) != 16 {
			b.Fatal("fig5 incomplete")
		}
	}
}

func BenchmarkClassificationAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.ClassificationAccuracy(); len(t.Rows) != 8 {
			b.Fatal("classacc incomplete")
		}
	}
}

func BenchmarkFigure7CPIBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig7(); len(t.Rows) != 32 {
			b.Fatal("fig7 incomplete")
		}
	}
}

func BenchmarkFigure8SharedDataCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig8(); len(t.Rows) != 32 {
			b.Fatal("fig8 incomplete")
		}
	}
}

func BenchmarkFigure9PrivateDataCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig9(); len(t.Rows) != 32 {
			b.Fatal("fig9 incomplete")
		}
	}
}

func BenchmarkFigure10InstructionCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig10(); len(t.Rows) != 32 {
			b.Fatal("fig10 incomplete")
		}
	}
}

func BenchmarkFigure11ClusterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig11(); len(t.Rows) == 0 {
			b.Fatal("fig11 empty")
		}
	}
}

func BenchmarkFigure12Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.Fig12(); len(t.Rows) < 8 {
			b.Fatal("fig12 incomplete")
		}
	}
}

func BenchmarkExtensionScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.TechnologyScaling(); len(t.Rows) != 3 {
			b.Fatal("scaling incomplete")
		}
	}
}

func BenchmarkExtensionMeshVsTorus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.MeshVsTorus(); len(t.Rows) != 2 {
			b.Fatal("meshtorus incomplete")
		}
	}
}

func BenchmarkExtensionTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.TrafficComparison(); len(t.Rows) != 4 {
			b.Fatal("traffic incomplete")
		}
	}
}

func BenchmarkExtensionContentionModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.ContentionModelAblation(); len(t.Rows) != 2 {
			b.Fatal("nocmodel incomplete")
		}
	}
}

func BenchmarkExtensionMemLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewCampaign(benchScale())
		if t := c.MemLatencySweep(); len(t.Rows) != 3 {
			b.Fatal("memlat incomplete")
		}
	}
}

// BenchmarkJobRunCold is the end-to-end row for a small cold job: one
// Job.Run of OLTP-DB2 under R-NUCA at the load-smoke shape (300 warmup
// and 600 measured references). Each iteration uses a fresh workload
// seed, so no two iterations simulate the same streams.
func BenchmarkJobRunCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := rnuca.OLTPDB2()
		w.Seed += uint64(i) + 1
		job := rnuca.Job{
			Input:   rnuca.FromWorkload(w),
			Designs: []rnuca.DesignID{rnuca.DesignRNUCA},
			Options: rnuca.RunOptions{Warm: 300, Measure: 600},
		}
		if _, err := job.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Microbenchmarks of the core mechanisms ----

func BenchmarkRotationalLookup(b *testing.B) {
	topo := noc.NewFoldedTorus2D(4, 4)
	m := rot.NewRIDMap(topo, 4, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.SliceFor(noc.TileID(i%16), uint64(i)<<16, 16)
	}
}

func BenchmarkTorusLatency(b *testing.B) {
	n := noc.NewNetwork(noc.NewFoldedTorus2D(4, 4), noc.DefaultLinkConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.Latency(noc.TileID(i%16), noc.TileID((i*7)%16), noc.DataBytes)
	}
}

func BenchmarkCacheLookupInsert(b *testing.B) {
	c := cache.New(cache.Geometry{SizeBytes: 1 << 20, Ways: 16, BlockBytes: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := cache.Addr(uint64(i%32768) * 64)
		if _, hit := c.Lookup(addr); !hit {
			c.Insert(addr, cache.Shared, cache.ClassShared)
		}
	}
}

// translateLoop times ospage.System.Translate for one core cycling over
// pages distinct pages, after one untimed pass has classified them all.
func translateLoop(b *testing.B, pages uint64) {
	cfg := sim.Config16()
	sys := ospage.NewSystem(cfg.PageBytes, cfg.TLBEntries, cfg.Cores)
	pageBytes := uint64(cfg.PageBytes)
	for p := uint64(0); p < pages; p++ {
		sys.Translate(p*pageBytes, 0, 0, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Translate(uint64(i)%pages*pageBytes, 0, 0, false, false)
	}
}

// BenchmarkTranslateTLBHit is the OS page layer's fast path: every access
// hits a translation the core's TLB holds.
func BenchmarkTranslateTLBHit(b *testing.B) { translateLoop(b, uint64(sim.Config16().TLBEntries)) }

// BenchmarkTranslateWalk is its slow path: cycling over twice the TLB's
// reach makes every access miss, walk the page table and evict the LRU
// translation.
func BenchmarkTranslateWalk(b *testing.B) { translateLoop(b, 2*uint64(sim.Config16().TLBEntries)) }

// BenchmarkReclassPurge times R-NUCA's page re-classification: each
// iteration core 1 touches eight blocks of a fresh page, making it private
// to core 1, and core 9 then reads it, which re-classifies the page shared
// and purges its blocks from slice 1 and core 1's L1s. Core 1's private
// pages fill its whole slice beforehand, the state a purge meets in a
// warmed run.
func BenchmarkReclassPurge(b *testing.B) {
	ch := sim.NewChassis(sim.Config16())
	d := rnuca.NewDesign(rnuca.DesignRNUCA, ch)
	ref := func(core int, addr uint64) trace.Ref {
		return trace.Ref{Core: core, Thread: core, Kind: trace.Load, Addr: addr, Class: cache.ClassPrivate, Busy: 1}
	}
	for a := uint64(0); a < uint64(ch.Cfg.L2SliceBytes); a += uint64(ch.Cfg.BlockBytes) {
		d.Access(ref(1, a))
	}
	pageBytes := uint64(ch.Cfg.PageBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := 1<<32 + uint64(i)*pageBytes
		for blk := uint64(0); blk < 8; blk++ {
			d.Access(ref(1, page+blk*uint64(ch.Cfg.BlockBytes)))
		}
		if d.Access(ref(9, page)).Reclass == 0 {
			b.Fatal("no re-classification")
		}
	}
}

// BenchmarkL1Service is the directory-transaction layer: it replays a
// prebuilt OLTP-DB2 reference slice, taken round-robin from the cores'
// streams, into Chassis.L1Service, which runs the L1s and their MOSI
// directory. One untimed pass warms the L1s and grows the directory's
// table; ns/op is per reference.
func BenchmarkL1Service(b *testing.B) {
	w := rnuca.OLTPDB2()
	ch := sim.NewChassis(rnuca.ConfigFor(w))
	streams := workload.Streams(w)
	refs := make([]trace.Ref, 1<<17)
	for i := range refs {
		refs[i] = streams[i%len(streams)].Next()
	}
	for _, r := range refs {
		ch.L1Service(r.Core, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i%len(refs)]
		ch.L1Service(r.Core, r)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	g := workload.NewGenerator(rnuca.OLTPDB2(), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// Engine throughput for each design on OLTP-DB2, reported as ns per
// simulated L2 reference.
func benchDesign(b *testing.B, id rnuca.DesignID) {
	w := rnuca.OLTPDB2()
	cfg := rnuca.ConfigFor(w)
	ch := sim.NewChassis(cfg)
	d := rnuca.NewDesign(id, ch)
	eng := sim.NewEngine(ch, d, workload.Streams(w))
	eng.OffChipMLP = w.OffChipMLP
	b.ResetTimer()
	eng.Run(0, b.N)
}

func BenchmarkEnginePrivate(b *testing.B) { benchDesign(b, rnuca.DesignPrivate) }
func BenchmarkEngineShared(b *testing.B)  { benchDesign(b, rnuca.DesignShared) }
func BenchmarkEngineRNUCA(b *testing.B)   { benchDesign(b, rnuca.DesignRNUCA) }
func BenchmarkEngineIdeal(b *testing.B)   { benchDesign(b, rnuca.DesignIdeal) }
