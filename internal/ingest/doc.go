// Package ingest turns foreign address-trace formats into trace.Ref
// streams and canonical indexed tracefile-v2 corpora, so the simulator
// and the experiments campaign can run on externally captured workloads
// instead of only the repo's own statistical generators. It is built
// from three pluggable layers:
//
//   - a Decoder registry (Register/ByName/Detect) with streaming
//     decoders for Dinero "din" traces, ChampSim-style instruction
//     streams, and a generic CSV fallback, all with transparent gzip
//     inflation and strict error reporting (every parse error carries
//     the file, 1-based line, and byte offset);
//   - a Classifier (PageTable) that assigns cache.Class at OS-page
//     granularity when the source carries no ground truth, by running
//     the paper's §4.3 classification in internal/ospage;
//   - an Interleaver that maps single-threaded captures onto N cores,
//     so one public trace becomes a 16-tile workload.
//
// Convert wires the three together; cmd/rnuca-trace's "convert"
// subcommand is the command-line front end, and
// experiments.Campaign.SetInput registers a converted corpus for the
// figure analyses and design comparisons.
//
// # Input formats
//
// All three text formats share the same conventions: one record per
// line, blank lines and lines starting with "#" are skipped, and a
// trailing ".gz" input is inflated transparently (detection strips it
// before matching the extension).
//
// Dinero ("din", extensions .din/.dinero) is the classic one-access-
// per-line format of the Dinero cache simulators:
//
//	label address
//
// where label is 0 (data read), 1 (data write), or 2 (instruction
// fetch) — letter aliases r/w/i are accepted — and the address is
// hexadecimal with an optional 0x prefix. Fields past the second are
// ignored, as some tracers append annotations.
//
// ChampSim-style ("champsim", extensions .champsim/.champ/.ctrace) is a
// textual rendering of ChampSim's per-instruction records:
//
//	[n:count] ip [l:addr]... [s:addr]...
//
// Each line is one instruction: the instruction pointer becomes an
// IFetch ref, then each memory operand ("l:"/"r:" source reads,
// "s:"/"w:" destination writes) becomes a Load or Store. Addresses are
// hex with an optional 0x prefix. The decoder derives per-ref Busy
// from instruction-count gaps between lines — 1 per line for a dense
// trace, or the actual gap when the optional leading "n:count" field
// (cumulative retired-instruction number, decimal, strictly
// increasing) marks a decimated trace — so converted CPI stacks
// charge Busy for the work the trace really carried instead of the
// flat Options.Busy budget the count-less formats get.
//
// CSV ("csv", extension .csv) is the generic fallback:
//
//	addr,kind[,core[,thread]]
//
// with decimal or 0x-prefixed-hex addresses and any kind spelling
// trace.KindFromString accepts. The optional core/thread columns let a
// multi-core capture carry its own placement (preserved by the
// InterleaveKeep mode); an optional "addr,kind,..." header row is
// skipped. Keep-mode conversions without an explicit Options.Cores
// auto-size the converted core count from a pass-0 scan of the
// inputs' core ids (highest id plus one); the scan doubles as the
// two-pass classifier's settling pass when both are enabled.
//
// # Page-grain class inference
//
// Foreign traces carry no access classes, but R-NUCA's placement is
// driven by them, so the converter rediscovers classes with the
// simulator's own OS page table (ospage.Table, §4.3), at page (8KB)
// granularity; ingest calls it rather than mirroring its rules:
//
//   - instruction fetches classify a page instruction;
//   - data pages touched by a single core are private to it;
//   - a data touch from a second core re-classifies the page shared —
//     unless it comes from the page's owning thread, which is a thread
//     migration: the page stays private and is re-owned;
//   - stores to instruction pages force them shared (replicated
//     read-only copies would break coherence), and shared is terminal.
//
// Two modes trade fidelity against passes over the input:
// ClassifyStream labels each ref with its page's class at the moment of
// access (one pass, first-touch semantics). It walks the table on every
// access, where the simulated OS walks it only on a TLB miss, so it can
// classify a page earlier than the simulator does: a load and then a
// fetch by one core make the page instruction here, while in the
// simulator the fetch hits the load's TLB entry and the page stays
// private. ClassifyTwoPass settles every page's final class first and
// labels all refs with it (two decode passes — the retrospective view
// the paper's characterization figures take). The table's memory can be
// bounded (Options.MaxPages) for arbitrarily large inputs; evicted pages
// re-run first-touch classification if touched again.
//
// # Worked example: convert, replay, figures
//
// Convert a public single-threaded Dinero capture into a 16-tile
// corpus, replay it under all five designs, and run the
// characterization analyses:
//
//	rnuca-trace convert -interleave stride -cores 16 -o web.rnt web.din.gz
//	rnuca-trace info web.rnt
//	rnuca-trace replay -design all web.rnt
//
// or, in code:
//
//	sum, err := ingest.Convert([]string{"web.din.gz"}, "web.rnt", ingest.Options{
//		Interleave: ingest.InterleaveStride,
//		Cores:      16,
//	})
//	...
//	c := experiments.NewCampaign(experiments.Quick())
//	w, err := c.SetInput(rnuca.FromTrace("web.rnt")) // registers + synthesizes the workload
//	res := c.Result(w, rnuca.DesignRNUCA)            // replays the corpus
//	tables := c.FigIngested()                        // Figure 2–5 analyses over it
package ingest
