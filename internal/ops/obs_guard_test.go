package ops

// Guard for the observability layer's "unmeasurable when off" promise:
// the instrumented ApplyFilter entry point must add zero allocations over
// the raw prepared sweep when no span is in the context. The traced
// benchmarks in the root package's obs_bench_test.go track the wall-time
// cost of both modes.

import (
	"context"
	"path/filepath"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// guardTable writes a small Q6-shaped dict table for the alloc guard.
func guardTable(t *testing.T, n int) *colstore.Reader {
	t.Helper()
	dates := make([]int64, n)
	for i := range dates {
		dates[i] = int64(i * 2000 / n)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "shipdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(t.TempDir(), "guard.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: dates}},
		colstore.Options{RowGroupRows: 16384, PageRows: 4096}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestApplyFilterNoTracerAddsZeroAllocs asserts the pooled DictFilter
// scan pays nothing for the instrumentation when no tracer is attached:
// routing through ApplyFilter (the instrumented seam) must allocate no
// more than preparing the filter and running its kernel sweep directly.
// Pool size 1 keeps goroutine scheduling deterministic.
func TestApplyFilterNoTracerAddsZeroAllocs(t *testing.T) {
	const n = 1 << 16
	r := guardTable(t, n)
	pool := exec.NewPool(1)
	f := &DictFilter{Col: "shipdate", Op: sboost.OpLt, IntValue: 40}
	ctx := context.Background()

	// Warm lazily-initialised state (dictionary cache, arena pools).
	if _, err := ApplyFilter(ctx, f, r, pool, nil); err != nil {
		t.Fatal(err)
	}

	direct := testing.AllocsPerRun(100, func() {
		pf, err := f.prepare(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := applyPrepared(ctx, r, pool, nil, pf); err != nil {
			t.Fatal(err)
		}
	})
	wrapped := testing.AllocsPerRun(100, func() {
		if _, err := ApplyFilter(ctx, f, r, pool, nil); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped > direct {
		t.Fatalf("ApplyFilter with no tracer allocates more than the raw prepared sweep: %.1f > %.1f allocs/op",
			wrapped, direct)
	}
}
