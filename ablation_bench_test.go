package codecdb

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// pair (or sweep) isolates one mechanism — data skipping, stripe fan-out,
// batch column-read caching, the phase-concurrent hash table, sectional
// bitmap compression — against its naive alternative.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// reportPageStats attaches the reader's per-operation page-skipping
// counters to the benchmark and resets them for the next subtest.
func reportPageStats(b *testing.B, r *colstore.Reader) {
	io := r.Stats()
	b.ReportMetric(float64(io.PagesRead)/float64(b.N), "pagesRead/op")
	b.ReportMetric(float64(io.PagesPruned)/float64(b.N), "pagesPruned/op")
	b.ReportMetric(float64(io.PagesSkipped)/float64(b.N), "pagesSkipped/op")
	r.ResetStats()
}

// ablationTable writes a single-column table used by the skipping bench.
func ablationTable(b *testing.B, n int) *colstore.Reader {
	b.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 2000)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(b.TempDir(), "t.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}},
		colstore.Options{RowGroupRows: 65536, PageRows: 4096}); err != nil {
		b.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkAblationDataSkipping compares gathering 0.1% of rows with the
// skipping reader against decoding the full column and indexing it — the
// value of page- and row-level skipping (§5.2).
func BenchmarkAblationDataSkipping(b *testing.B) {
	const n = 1 << 19
	r := ablationTable(b, n)
	pool := exec.NewPool(0)
	sel := bitutil.NewSectionalBitmap(n, 65536)
	rng := rand.New(rand.NewSource(1))
	var rows []int
	for i := 0; i < n/1000; i++ {
		row := rng.Intn(n)
		sel.Set(row)
		rows = append(rows, row)
	}
	b.Run("WithSkipping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.GatherInts(r, "v", sel, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			all, err := ops.ReadAllInts(r, "v", pool)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int64, 0, len(rows))
			for _, row := range rows {
				out = append(out, all[row])
			}
		}
	})
}

// q6Table writes a TPC-H Q6-shaped table: a sorted dictionary "shipdate"
// column and a bit-packed "quantity" column. Sorted data gives each page a
// narrow value range, the layout page-level zone maps are built for.
func q6Table(b *testing.B, n int) *colstore.Reader {
	b.Helper()
	dates := make([]int64, n)
	qtys := make([]int64, n)
	rng := rand.New(rand.NewSource(6))
	for i := range dates {
		dates[i] = int64(i * 2000 / n) // sorted: ~2000 distinct "dates"
		qtys[i] = rng.Int63n(50)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "shipdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "quantity", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
	}}
	path := filepath.Join(b.TempDir(), "q6.cdb")
	if err := colstore.WriteFile(path, schema,
		[]colstore.ColumnData{{Ints: dates}, {Ints: qtys}},
		colstore.Options{RowGroupRows: 65536, PageRows: 4096}); err != nil {
		b.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkFilterHotPath measures the steady-state filter hot path on a
// selective TPC-H Q6-shaped scan (shipdate < constant, ~2% selectivity):
// ns/op and allocs/op are the numbers BENCH_PR2.json tracks across PRs.
func BenchmarkFilterHotPath(b *testing.B) {
	const n = 1 << 19
	r := q6Table(b, n)
	pool := exec.NewPool(0)
	b.Run("DictLt", func(b *testing.B) {
		f := &ops.DictFilter{Col: "shipdate", Op: sboost.OpLt, IntValue: 40}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bm, err := ops.ApplyFilter(context.Background(), f, r, pool, nil)
			if err != nil {
				b.Fatal(err)
			}
			if bm.Cardinality() == 0 {
				b.Fatal("empty selection")
			}
		}
		reportPageStats(b, r)
	})
	b.Run("BitPackedLt", func(b *testing.B) {
		f := &ops.BitPackedFilter{Col: "quantity", Op: sboost.OpLt, Value: 24}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ops.ApplyFilter(context.Background(), f, r, pool, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportPageStats(b, r)
	})
}

// BenchmarkAblationStripeCount sweeps the stripe fan-out of stripe hash
// aggregation; 1 stripe degenerates to a single hash table.
func BenchmarkAblationStripeCount(b *testing.B) {
	const n = 1 << 19
	rng := rand.New(rand.NewSource(2))
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 18)
		vals[i] = rng.Int63n(100)
	}
	specs := []ops.VecAgg{{Kind: ops.AggSumInt, Ints: vals}}
	pool := exec.NewPool(0)
	for _, stripes := range []int{1, 4, 16, 32, 128} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.StripeHashAggregateN(pool, keys, specs, stripes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("singleHashMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ops.HashAggregate(keys, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPCHBuild compares the lock-free phase-concurrent build
// against a mutex-guarded Go map under the same parallelism (§5.5).
func BenchmarkAblationPCHBuild(b *testing.B) {
	const n = 1 << 18
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	pool := exec.NewPool(0)
	b.Run("PhaseConcurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops.HashJoinBuild(pool, keys, nil)
		}
	})
	b.Run("MutexMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int64, n)
			var mu sync.Mutex
			pool.ParallelChunks(n, func(start, end int) {
				for j := start; j < end; j++ {
					mu.Lock()
					m[keys[j]] = append(m[keys[j]], int64(j))
					mu.Unlock()
				}
			})
		}
	})
	b.Run("SingleThreadMap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]int64, n)
			for j, k := range keys {
				m[k] = append(m[k], int64(j))
			}
		}
	})
}

// BenchmarkAblationSectionalCompression measures RLE-compressing bitmap
// sections: the memory trade (§5.1) costs compress/decompress time.
func BenchmarkAblationSectionalCompression(b *testing.B) {
	const n = 1 << 20
	s := bitutil.NewSectionalBitmap(n, 65536)
	for i := 0; i+1 < n; i += 3 { // runs of 2 with gaps: RLE-friendly enough
		s.Set(i)
		s.Set(i + 1)
	}
	b.Run("CompressAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := bitutil.NewSectionalBitmap(n, 65536)
			s.ForEach(func(j int) { c.Set(j) })
			for sec := 0; sec < c.NumSections(); sec++ {
				c.Compress(sec)
			}
		}
	})
	b.Run("Cardinality/Uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Cardinality()
		}
	})
}
