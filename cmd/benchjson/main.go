// Command benchjson measures the repository's core benchmarks — graph
// construction and membership, triangle machinery, shared-randomness key
// derivation, and end-to-end protocol sessions — and emits the results as
// JSON: ns/op, allocs/op, bytes/op, and (where the benchmark meters
// communication) bits/op.
//
// It exists for the BENCH_N.json perf trajectory: CI runs it with a short
// -benchtime as a smoke artifact, and the numbers committed in
// BENCH_3.json were produced by it (see EXPERIMENTS.md for the
// wall-clock sweep table).
//
// It also compares its own reports: `benchjson -compare old new` prints a
// per-benchmark ns/op delta table and exits non-zero when any shared
// benchmark regressed by more than -max-regress percent. Each side is a
// comma-separated list of reports (see compareReports). gate.sh, next to
// this file, is the CI gate on top: a base revision against this tree.
//
// Examples:
//
//	benchjson                     # ~1s per benchmark, JSON on stdout
//	benchjson -benchtime 100x     # fixed iteration count (CI smoke)
//	benchjson -o BENCH.json       # write to a file
//	benchjson -compare -max-regress 20 BENCH_9.json BENCH_10.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	tricomm "tricomm"
	"tricomm/internal/bitset"
	"tricomm/internal/blocks"
	"tricomm/internal/comm"
	"tricomm/internal/graph"
	"tricomm/internal/partition"
	"tricomm/internal/parwork"
	"tricomm/internal/scenario"
	"tricomm/internal/stats"
	"tricomm/internal/wire"
	"tricomm/internal/xrand"
)

// Result is one benchmark's measurement.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
	BitsOp   float64 `json:"bits_op,omitempty"`
	N        int     `json:"iterations"`
}

// Report is the emitted document.
type Report struct {
	Go        string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out        = flag.String("o", "", "output path (default stdout)")
		benchtime  = flag.String("benchtime", "1s", "per-benchmark budget (duration or Nx count)")
		zeroAlloc  = flag.String("assert-zero-alloc", "", "comma-separated benchmark names whose allocs_op must be 0 (exit 1 otherwise)")
		compare    = flag.Bool("compare", false, "compare reports: benchjson -compare old.json[,old2.json…] new.json[,new2.json…] (runs nothing)")
		maxRegress = flag.Float64("max-regress", 20, "with -compare: exit 1 when any shared benchmark's fastest and median ns/op both grew by more than this percent")
	)
	testing.Init()
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two comma-separated report lists, got %d arguments", flag.NArg())
		}
		return compareReports(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","), *maxRegress)
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	mustZero := map[string]bool{}
	if *zeroAlloc != "" {
		for _, name := range strings.Split(*zeroAlloc, ",") {
			mustZero[strings.TrimSpace(name)] = true
		}
	}

	rep := Report{
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: *benchtime,
	}
	var zeroAllocErr error
	for _, bench := range coreBenchmarks() {
		r := testing.Benchmark(bench.fn)
		res := Result{
			Name:     bench.name,
			NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
			N:        r.N,
		}
		if bits, ok := r.Extra["bits/op"]; ok {
			res.BitsOp = bits
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.1f ns/op %8d allocs/op\n",
			bench.name, res.NsPerOp, res.AllocsOp)
		if mustZero[bench.name] {
			delete(mustZero, bench.name)
			if res.AllocsOp != 0 && zeroAllocErr == nil {
				zeroAllocErr = fmt.Errorf("%s allocates: %d allocs/op (want 0)",
					bench.name, res.AllocsOp)
			}
		}
	}
	if zeroAllocErr == nil && len(mustZero) > 0 {
		for name := range mustZero {
			zeroAllocErr = fmt.Errorf("-assert-zero-alloc names unknown benchmark %q", name)
			break
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return zeroAllocErr
}

// compareReports prints each benchmark's fastest and median ns/op on both
// sides, two sets of benchjson reports, and returns an error when one
// regressed by more than maxRegress percent in both: outside load slows
// the median run, one lucky fast run moves the fastest, a real regression
// moves both. A benchmark on only one side prints as new or gone and never
// fails the comparison, so a change may add or retire ledger entries.
func compareReports(w io.Writer, oldPaths, newPaths []string, maxRegress float64) error {
	oldNames, oldNs, err := loadRuns(oldPaths)
	if err != nil {
		return err
	}
	newNames, newNs, err := loadRuns(newPaths)
	if err != nil {
		return err
	}
	pct := func(old, cur float64) float64 {
		if old <= 0 {
			return 0
		}
		return (cur - old) / old * 100
	}
	fmt.Fprintf(w, "%-32s %13s %13s %8s %13s %13s %8s\n",
		"benchmark", "old fastest", "new fastest", "delta", "old median", "new median", "delta")
	var regressed []string
	for _, name := range newNames {
		old, cur := oldNs[name], newNs[name]
		if old == nil {
			fmt.Fprintf(w, "%-32s %13s %13.1f %8s\n", name, "-", stats.Quantile(cur, 0), "new")
			continue
		}
		oldFast, curFast := stats.Quantile(old, 0), stats.Quantile(cur, 0)
		oldMed, curMed := stats.Quantile(old, 0.5), stats.Quantile(cur, 0.5)
		dFast, dMed := pct(oldFast, curFast), pct(oldMed, curMed)
		mark := ""
		if min(dFast, dMed) > maxRegress {
			mark = "  REGRESSION"
			regressed = append(regressed, name)
		}
		fmt.Fprintf(w, "%-32s %13.1f %13.1f %+7.1f%% %13.1f %13.1f %+7.1f%%%s\n",
			name, oldFast, curFast, dFast, oldMed, curMed, dMed, mark)
	}
	for _, name := range oldNames {
		if newNs[name] == nil {
			fmt.Fprintf(w, "%-32s %13.1f %13s %8s\n", name, stats.Quantile(oldNs[name], 0), "-", "gone")
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% in both the fastest and the median run: %s",
			len(regressed), maxRegress, strings.Join(regressed, ", "))
	}
	return nil
}

// loadRuns reads benchjson reports and returns every run's ns/op of each
// benchmark, with the names in first-seen order.
func loadRuns(paths []string) (names []string, ns map[string][]float64, err error) {
	ns = map[string][]float64{}
	for _, path := range paths {
		var r Report
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, res := range r.Results {
			if ns[res.Name] == nil {
				names = append(names, res.Name)
			}
			ns[res.Name] = append(ns[res.Name], res.NsPerOp)
		}
	}
	return names, ns, nil
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// foldBody is the parwork/fold benchmark's scan body, hoisted to package
// level so the timed loop carries no closure construction.
var foldBody = func(lo, hi int) int64 {
	var s int64
	for i := lo; i < hi; i++ {
		s += int64(i & 7)
	}
	return s
}

// replyWidths are the WriteUint widths of the wire benchmarks' message: a
// 3-bit header, then a 300-bit reply in 64-bit words.
var replyWidths = []int{3, 64, 64, 64, 64, 44}

// writeReply writes the wire benchmarks' message, its words derived from
// seed.
func writeReply(w *wire.Writer, seed uint64) {
	for j, width := range replyWidths {
		w.WriteUint(seed*0x9e3779b97f4a7c15+uint64(j), width)
	}
}

// scenarioBench measures one scenario family's generation hot path at its
// default parameters (the same specs the registry-driven benchmarks in
// internal/scenario track with ReportAllocs).
func scenarioBench(family string) func(b *testing.B) {
	return func(b *testing.B) {
		sp, err := scenario.Parse(family)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng.Seed(int64(i))
			if _, err := scenario.Build(sp, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// splitBench measures one split of the far instance the oneround
// workload of perfbench splits (n = 16384, d = 8) among k = 8 players.
func splitBench(pt partition.Partitioner) func(b *testing.B) {
	return func(b *testing.B) {
		g := graph.FarWithDegree(graph.FarParams{N: 16384, D: 8, Eps: 0.2}, rand.New(rand.NewSource(8))).G
		s := xrand.New(8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Split(g, 8, s)
		}
	}
}

// denseSessionBench measures one full interactive session on a dense
// ε-far instance at the given intra-phase worker width. The w1/w8 pair
// is the single-session speedup the BENCH trajectory tracks: the reports
// are bit-identical at every width, so any ns/op gap is pure wall-clock.
func denseSessionBench(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		g, _ := tricomm.FarGraph(512, 16, 0.2, 9)
		cluster, err := tricomm.Split(g, 8, tricomm.SplitDisjoint, 9)
		if err != nil {
			b.Fatal(err)
		}
		s, err := cluster.Session(tricomm.Options{
			Protocol: tricomm.Interactive, Eps: 0.2, AvgDegree: 16,
			IntraWorkers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		var bits int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, terr := s.Test(ctx)
			if terr != nil {
				b.Fatal(terr)
			}
			bits += rep.Bits
		}
		b.ReportMetric(float64(bits)/float64(b.N), "bits/op")
	}
}

// coreBenchmarks mirrors the hot-path benchmarks in internal/graph and the
// facade: the CSR construction and membership paths the perf trajectory
// tracks, plus one metered protocol session for bits/op.
func coreBenchmarks() []namedBench {
	return []namedBench{
		{"graph/build", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			edges := graph.ErdosRenyi(4096, 0.004, rng).Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.FromEdges(4096, edges)
			}
		}},
		{"graph/has-edge", func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := graph.ErdosRenyi(10000, 0.001, rng)
			const q = 1 << 12
			us := make([]int32, q)
			vs := make([]int32, q)
			for i := range us {
				us[i] = int32(i * 131 % 10000)
				vs[i] = int32((i*7 + 1) % 10000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.HasEdge(int(us[i%q]), int(vs[i%q]))
			}
		}},
		{"graph/has-edge-dense", func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			g := graph.ErdosRenyi(2048, 0.05, rng)
			const q = 1 << 12
			us := make([]int32, q)
			vs := make([]int32, q)
			for i := range us {
				us[i] = int32(i * 131 % 2048)
				vs[i] = int32((i*7 + 1) % 2048)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.HasEdge(int(us[i%q]), int(vs[i%q]))
			}
		}},
		{"graph/count-triangles", func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := graph.ErdosRenyi(2048, 0.01, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CountTriangles()
			}
		}},
		{"graph/pack-triangles", func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := graph.FarWithDegree(graph.FarParams{N: 2048, D: 16, Eps: 0.2}, rng).G
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PackTriangles()
			}
		}},
		{"graph/disjoint-vees", func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g := graph.FarWithDegree(graph.FarParams{N: 2048, D: 16, Eps: 0.2}, rng).G
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for v := 0; v < g.N(); v++ {
					total += g.DisjointVeeCountAt(v)
				}
				if total == 0 {
					b.Fatal("no vees found")
				}
			}
		}},
		{"graph/far-with-degree", func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.FarWithDegree(graph.FarParams{N: 4096, D: 8, Eps: 0.2}, rng)
			}
		}},
		{"partition/split-disjoint", splitBench(partition.Disjoint{})},
		{"partition/split-duplicate", splitBench(partition.Duplicate{Q: 0.5})},
		{"bitset/intersect-count", func(b *testing.B) {
			// Mirrors internal/bitset BenchmarkIntersectCount: 32-word rows
			// (a 2048-vertex shadow) at density 0.3.
			rng := rand.New(rand.NewSource(11))
			row := func() []uint64 {
				r := make([]uint64, 32)
				for k := 0; k < 32*64; k++ {
					if rng.Float64() < 0.3 {
						bitset.Mark(r, k)
					}
				}
				return r
			}
			x, y := row(), row()
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += bitset.IntersectCount(x, y)
			}
			_ = sink
		}},
		{"bitset/intersect-count-wide", func(b *testing.B) {
			// 128-word rows (an 8192-vertex shadow): the 8-word unrolled
			// fast path, mirroring internal/bitset BenchmarkIntersectCountWide.
			rng := rand.New(rand.NewSource(13))
			row := func() []uint64 {
				r := make([]uint64, 128)
				for k := 0; k < 128*64; k++ {
					if rng.Float64() < 0.3 {
						bitset.Mark(r, k)
					}
				}
				return r
			}
			x, y := row(), row()
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += bitset.IntersectCount(x, y)
			}
			_ = sink
		}},
		{"parwork/fold", func(b *testing.B) {
			// The ordered-fold work-splitting engine at 8 workers over a
			// 64k-element scan, mirroring internal/parwork BenchmarkFoldInt64.
			// The body closure is hoisted so the timed loop exercises only
			// the fold machinery, which must stay allocation-free. One warm-up
			// call spawns the persistent helper goroutines and primes the job
			// pool outside the timer, so short -benchtime runs don't smear
			// that one-time cost across a handful of iterations.
			parwork.FoldInt64(8, 1<<16, foldBody)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += parwork.FoldInt64(8, 1<<16, foldBody)
			}
			_ = sink
		}},
		{"graph/count-triangles-dense", func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			g := graph.ErdosRenyi(2048, 0.05, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CountTriangles()
			}
		}},
		{"graph/count-triangles-par", func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := graph.ErdosRenyi(2048, 0.01, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CountTrianglesN(4)
			}
		}},
		{"graph/has-edge-batch", func(b *testing.B) {
			rng := rand.New(rand.NewSource(22))
			g := graph.ErdosRenyi(2048, 0.05, rng)
			const q = 256
			vs := make([]int32, q)
			for i := range vs {
				vs[i] = int32(i * 8 % 2048)
			}
			for i := 1; i < len(vs); i++ {
				for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
					vs[j], vs[j-1] = vs[j-1], vs[j]
				}
			}
			out := make([]bool, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.HasEdgeBatch(i%2048, vs, out)
			}
		}},
		{"xrand/key", func(b *testing.B) {
			// Shared.Key on a 20-byte tag: SHA-256 over seed‖0x02‖tag.
			s := xrand.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink xrand.Key
			for i := 0; i < b.N; i++ {
				sink ^= s.Key("unrestricted/b3/d417")
			}
			_ = sink
		}},
		{"wire/write-uint", func(b *testing.B) {
			// A 3-bit header, then a 300-bit SampleTest reply written 64
			// bits per WriteUint, so every word straddles byte edges.
			var w wire.Writer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				writeReply(&w, uint64(i))
			}
		}},
		{"wire/read-uint", func(b *testing.B) {
			// Read back the message wire/write-uint writes.
			var w wire.Writer
			writeReply(&w, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				r := wire.ReaderFor(&w)
				for _, width := range replyWidths {
					v, err := r.ReadUint(width)
					if err != nil {
						b.Fatal(err)
					}
					sink ^= v
				}
			}
			_ = sink
		}},
		{"blocks/sample-test", func(b *testing.B) {
			// One player answering one degree-estimator round: m = 300
			// experiments for a vertex of degree ~20 at guess 2^3, width 1,
			// as request 2 of an "unrestricted" run.
			g := graph.ErdosRenyi(2048, 0.01, rand.New(rand.NewSource(4)))
			p := &comm.Player{K: 4, N: g.N(), Edges: g.Edges(), View: g, Shared: xrand.New(1), Workers: 1}
			run := p.Shared.Key("unrestricted")
			req := blocks.SampleTestRequest(7, 300, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blocks.Handle(p, run, 2, req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"engine/askall-roundtrip", func(b *testing.B) {
			// One AskAll of a 1-bit request to k = 4 ServeLoop players over
			// chan links, inside one session: the round trip every block
			// request pays, without session set-up.
			top, err := comm.NewTopology(64, make([][]wire.Edge, 4), xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			var w wire.Writer
			w.WriteBool(true)
			bit := comm.FromWriter(&w)
			b.ReportAllocs()
			_, err = comm.RunOn(context.Background(), top, func(ctx context.Context, c *comm.Coordinator) error {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.AskAll(ctx, bit); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			}, comm.ServeLoop(func(*comm.Player, uint64, comm.Msg) (comm.Msg, error) { return bit, nil }))
			if err != nil {
				b.Fatal(err)
			}
		}},
		{"engine/null-session", func(b *testing.B) {
			// One RunOn at k = 4 over chan links whose coordinator returns
			// at once: dial, k player goroutines and teardown, the fixed
			// cost of a session without its rounds.
			top, err := comm.NewTopology(64, make([][]wire.Edge, 4), xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			coord := func(context.Context, *comm.Coordinator) error { return nil }
			player := comm.ServeLoop(func(*comm.Player, uint64, comm.Msg) (comm.Msg, error) { return comm.Msg{}, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := comm.RunOn(ctx, top, coord, player); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"scenario/chung-lu", scenarioBench("chung-lu")},
		{"scenario/sbm", scenarioBench("sbm")},
		{"scenario/behrend-blowup", scenarioBench("behrend-blowup")},
		{"scenario/dup-adversary", scenarioBench("dup-adversary")},
		{"protocol/simlow-session", func(b *testing.B) {
			g, _ := tricomm.FarGraph(4096, 8, 0.2, 3)
			cluster, err := tricomm.Split(g, 8, tricomm.SplitDisjoint, 5)
			if err != nil {
				b.Fatal(err)
			}
			s, err := cluster.Session(tricomm.Options{
				Protocol: tricomm.SimultaneousLow, Eps: 0.2, AvgDegree: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var bits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, terr := s.Test(ctx)
				if terr != nil {
					b.Fatal(terr)
				}
				bits += rep.Bits
			}
			b.ReportMetric(float64(bits)/float64(b.N), "bits/op")
		}},
		{"protocol/unrestricted", func(b *testing.B) {
			g, _ := tricomm.FarGraph(512, 8, 0.2, 11)
			cluster, err := tricomm.Split(g, 4, tricomm.SplitDisjoint, 11)
			if err != nil {
				b.Fatal(err)
			}
			s, err := cluster.Session(tricomm.Options{
				Protocol: tricomm.Interactive, Eps: 0.2, AvgDegree: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var bits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, terr := s.Test(ctx)
				if terr != nil {
					b.Fatal(terr)
				}
				bits += rep.Bits
			}
			b.ReportMetric(float64(bits)/float64(b.N), "bits/op")
		}},
		{"protocol/unrestricted-dense-w1", denseSessionBench(1)},
		{"protocol/unrestricted-dense-w8", denseSessionBench(8)},
		{"protocol/exact-baseline", func(b *testing.B) {
			g, _ := tricomm.FarGraph(1024, 8, 0.2, 17)
			cluster, err := tricomm.Split(g, 4, tricomm.SplitDisjoint, 17)
			if err != nil {
				b.Fatal(err)
			}
			s, err := cluster.Session(tricomm.Options{Protocol: tricomm.Exact})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var bits int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, terr := s.Test(ctx)
				if terr != nil {
					b.Fatal(terr)
				}
				bits += rep.Bits
			}
			b.ReportMetric(float64(bits)/float64(b.N), "bits/op")
		}},
	}
}
