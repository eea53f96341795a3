package codecdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"codecdb/internal/colstore"
)

// checkMatchesReference runs every terminal on the pipeline and compares
// it with the naive full scan: ref decides each row over the raw arrays
// in d. Count, RowIDs, Ints, Strings, and GroupCount must match exactly;
// SumFloat is compared to within float reassociation error, since the
// pipeline folds per-row-group partial sums (in deterministic row-group
// order) while the reference sums row by row.
func checkMatchesReference(t *testing.T, iter int, q *Query, d *propData, ref func(i int) bool) {
	t.Helper()
	var (
		wantIDs  []int64
		wantInts []int64
		wantStrs []string
		wantG    = map[string]int64{}
		wantS    float64
	)
	for i := range d.cat {
		if !ref(i) {
			continue
		}
		wantIDs = append(wantIDs, int64(i))
		wantInts = append(wantInts, d.small[i])
		wantStrs = append(wantStrs, string(d.cat[i]))
		wantG[string(d.cat[i])]++
		wantS += d.score[i]
	}

	gotN, err := q.Count()
	if err != nil {
		t.Fatalf("iter %d: Count: %v", iter, err)
	}
	if gotN != int64(len(wantIDs)) {
		t.Fatalf("iter %d: Count = %d, reference = %d", iter, gotN, len(wantIDs))
	}

	gotIDs, err := q.RowIDs()
	if err != nil {
		t.Fatalf("iter %d: RowIDs: %v", iter, err)
	}
	if len(gotIDs) != len(wantIDs) || (len(wantIDs) > 0 && !reflect.DeepEqual(gotIDs, wantIDs)) {
		t.Fatalf("iter %d: RowIDs diverge: pipeline %d rows, reference %d rows", iter, len(gotIDs), len(wantIDs))
	}

	gotInts, err := q.Ints("small")
	if err != nil {
		t.Fatalf("iter %d: Ints: %v", iter, err)
	}
	if len(gotInts) != len(wantInts) || (len(wantInts) > 0 && !reflect.DeepEqual(gotInts, wantInts)) {
		t.Fatalf("iter %d: Ints diverge: pipeline %d vals, reference %d vals", iter, len(gotInts), len(wantInts))
	}

	gotStrs, err := q.Strings("cat")
	if err != nil {
		t.Fatalf("iter %d: Strings: %v", iter, err)
	}
	if len(gotStrs) != len(wantStrs) {
		t.Fatalf("iter %d: Strings diverge: pipeline %d vals, reference %d vals", iter, len(gotStrs), len(wantStrs))
	}
	for i := range gotStrs {
		if string(gotStrs[i]) != wantStrs[i] {
			t.Fatalf("iter %d: Strings[%d] = %q, reference %q", iter, i, gotStrs[i], wantStrs[i])
		}
	}

	gotG, err := q.GroupCount("cat")
	if err != nil {
		t.Fatalf("iter %d: GroupCount: %v", iter, err)
	}
	if !reflect.DeepEqual(gotG, wantG) {
		t.Fatalf("iter %d: GroupCount = %v, reference = %v", iter, gotG, wantG)
	}

	gotS, err := q.SumFloat("score")
	if err != nil {
		t.Fatalf("iter %d: SumFloat: %v", iter, err)
	}
	if tol := 1e-9 * math.Max(1, math.Abs(wantS)); math.Abs(gotS-wantS) > tol {
		t.Fatalf("iter %d: SumFloat = %v, reference = %v (diff %v > tol %v)", iter, gotS, wantS, gotS-wantS, tol)
	}
}

// TestPipelineMatchesReference is the executor's correctness property:
// for random predicate trees over every encoding, every terminal of the
// morsel pipeline agrees with a naive in-memory full scan of the raw
// arrays — on v2.1 files and on legacy v1 files.
func TestPipelineMatchesReference(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	formats := []struct {
		name    string
		version int
	}{
		{"v2.1", 0},
		{"v1", colstore.FormatV1},
	}
	for fi, f := range formats {
		f := f
		t.Run(f.name, func(t *testing.T) {
			d := propTable(t, db, fmt.Sprintf("pipeprop%d", fi), n, f.version)
			tbl, err := db.Table(fmt.Sprintf("pipeprop%d", fi))
			if err != nil {
				t.Fatal(err)
			}
			// The degenerate query: no predicate at all.
			checkMatchesReference(t, -1, tbl.All(), d, func(int) bool { return true })
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(7000*fi + iter)))
				p, ref := genPred(rng, d, 1+rng.Intn(2))
				q := tbl.Query(p)
				if err := q.Err(); err != nil {
					t.Fatalf("iter %d: build error: %v", iter, err)
				}
				checkMatchesReference(t, iter, q, d, ref)
			}
		})
	}
}
