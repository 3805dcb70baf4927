// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the experiment end to end at a reduced scale), plus
// microbenchmarks of the core mechanisms (rotational interleaving lookup,
// cache and directory operations, torus traversal, workload generation,
// and full-engine throughput per design).
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
	rot "rnuca/internal/rnuca"
	"rnuca/internal/sim"
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
