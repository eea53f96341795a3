package codecdb

import (
	"math"
	"testing"
)

// pipelineBenchTable loads the executor benchmark's table: 1<<18 rows in
// 8192-row groups (32 row groups), a dictionary string column where the
// two-conjunct query keeps roughly 3/4 of rows, a dictionary int column
// doubling as the group-by key, and a float column for the sum terminal.
func pipelineBenchTable(b *testing.B, n int) (tbl *Table, want int64, wantSum float64) {
	b.Helper()
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tag := make([][]byte, n)
	level := make([]int64, n)
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		level[i] = int64(i % 8)
		score[i] = float64(i%1000) / 10
		if i%97 == 0 {
			tag[i] = []byte("rare")
		} else {
			tag[i] = []byte("common")
			if level[i] < 6 {
				want++
				wantSum += score[i]
			}
		}
	}
	tbl, err = db.LoadTable("pipebench", []Column{
		{Name: "tag", Strings: tag, ForceEncoding: Dictionary, Forced: true},
		{Name: "level", Ints: level, ForceEncoding: Dictionary, Forced: true},
		{Name: "score", Floats: score},
	}, LoadOptions{RowGroupRows: 8192, PageRows: 1024})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, want, wantSum
}

// BenchmarkPipelineVsBarrier runs the same two-conjunct query through the
// morsel pipeline (one pass per row group, worker-local state, partials
// merged at the end) for each terminal. pagesRead/op makes the
// single-touch property visible. The operator-at-a-time barrier engine
// these numbers were first compared against is gone; BENCH_PR5.json
// keeps that comparison, and the sub-benchmark names stay as recorded
// there.
func BenchmarkPipelineVsBarrier(b *testing.B) {
	const n = 1 << 18
	tbl, want, wantSum := pipelineBenchTable(b, n)
	if g := tbl.inner.R.NumRowGroups(); g < 8 {
		b.Fatalf("bench table has %d row groups, want >= 8", g)
	}

	query := func() *Query { return tbl.Where("tag", Eq, "common").And("level", Lt, 6) }

	run := func(b *testing.B, q *Query, step func(*Query) error) {
		b.Helper()
		tbl.ResetIOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportQueryIO(b, tbl)
	}

	b.Run("Count/Pipelined", func(b *testing.B) {
		run(b, query(), func(q *Query) error {
			got, err := q.Count()
			if err == nil && got != want {
				b.Fatalf("count = %d, want %d", got, want)
			}
			return err
		})
	})
	b.Run("SumFloat/Pipelined", func(b *testing.B) {
		run(b, query(), func(q *Query) error {
			got, err := q.SumFloat("score")
			if err == nil && math.Abs(got-wantSum) > 1e-6*wantSum {
				b.Fatalf("sum = %v, want %v", got, wantSum)
			}
			return err
		})
	})
	b.Run("GroupCount/Pipelined", func(b *testing.B) {
		run(b, query(), func(q *Query) error {
			got, err := q.GroupCount("level")
			if err == nil {
				var total int64
				for _, c := range got {
					total += c
				}
				if total != want {
					b.Fatalf("group total = %d, want %d", total, want)
				}
			}
			return err
		})
	})
}

// BenchmarkPipelineVsBarrierClustered is the zone-map complement to
// BenchmarkPipelineVsBarrier: that table's values are uniformly
// interleaved, so every page is mixed and pagesPruned/op stays at zero —
// the pruning path never runs. Here both filter columns are clustered
// (tag in one leading block, level monotone across the file), so page
// zone maps dispose most pages without reading them and the benchmark
// exercises the prune branches of the kernels and the prefetch
// scheduler's page-list prediction.
func BenchmarkPipelineVsBarrierClustered(b *testing.B) {
	const n = 1 << 18
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tag := make([][]byte, n)
	level := make([]int64, n)
	score := make([]float64, n)
	var want int64
	for i := 0; i < n; i++ {
		level[i] = int64(i * 8 / n) // monotone 0..7: zone maps cut level<6
		score[i] = float64(i%1000) / 10
		if i < n/8 {
			tag[i] = []byte("rare") // clustered block: whole pages dispose
		} else {
			tag[i] = []byte("common")
			if level[i] < 6 {
				want++
			}
		}
	}
	tbl, err := db.LoadTable("pipeclust", []Column{
		{Name: "tag", Strings: tag, ForceEncoding: Dictionary, Forced: true},
		{Name: "level", Ints: level, ForceEncoding: Dictionary, Forced: true},
		{Name: "score", Floats: score},
	}, LoadOptions{RowGroupRows: 8192, PageRows: 1024})
	if err != nil {
		b.Fatal(err)
	}

	query := func() *Query { return tbl.Where("tag", Eq, "common").And("level", Lt, 6) }

	// The clustered layout must actually engage the zone maps, or this
	// benchmark silently degenerates into the uniform one.
	tbl.ResetIOStats()
	if got, err := query().Count(); err != nil {
		b.Fatal(err)
	} else if got != want {
		b.Fatalf("count = %d, want %d", got, want)
	}
	if st := tbl.IOStats(); st.PagesPruned == 0 {
		b.Fatalf("clustered table pruned no pages: %+v", st)
	}

	b.Run("Count/Pipelined", func(b *testing.B) {
		q := query()
		tbl.ResetIOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := q.Count()
			if err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("count = %d, want %d", got, want)
			}
		}
		b.StopTimer()
		reportQueryIO(b, tbl)
	})
}
