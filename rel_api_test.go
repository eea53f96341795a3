package codecdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"codecdb/internal/obs"
)

// relAPITables loads an orders/customers pair for relational API tests.
func relAPITables(t *testing.T) (*Table, *Table, []string, []int64, []float64, map[string]string) {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(5))
	const nc, no = 30, 4000
	names := make([][]byte, nc)
	nations := make([][]byte, nc)
	nationOf := map[string]string{}
	for i := range names {
		names[i] = []byte(fmt.Sprintf("cust#%02d", i))
		nations[i] = []byte(fmt.Sprintf("NATION%d", i%5))
		nationOf[string(names[i])] = string(nations[i])
	}
	if _, err := db.LoadTable("customers", []Column{
		{Name: "c_name", Strings: names},
		{Name: "c_nation", Strings: nations},
	}); err != nil {
		t.Fatal(err)
	}
	cust := make([]string, no)
	year := make([]int64, no)
	price := make([]float64, no)
	oCust := make([][]byte, no)
	for i := 0; i < no; i++ {
		// Orders reference customers 0..39: a quarter dangle (no customer).
		cust[i] = fmt.Sprintf("cust#%02d", rng.Intn(40))
		oCust[i] = []byte(cust[i])
		year[i] = int64(1992 + rng.Intn(7))
		price[i] = float64(rng.Intn(100000)) / 100
	}
	if _, err := db.LoadTable("orders", []Column{
		{Name: "o_cust", Strings: oCust},
		{Name: "o_year", Ints: year},
		{Name: "o_price", Floats: price},
	}, LoadOptions{RowGroupRows: 512, PageRows: 128}); err != nil {
		t.Fatal(err)
	}
	ot, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := db.Table("customers")
	if err != nil {
		t.Fatal(err)
	}
	return ot, ct, cust, year, price, nationOf
}

func TestQueryJoinGroupByAggRows(t *testing.T) {
	ot, ct, cust, year, price, nationOf := relAPITables(t)
	got, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		GroupBy("c_nation").
		AggRows(CountAll(), Sum("o_price"))
	if err != nil {
		t.Fatal(err)
	}
	wantCount := map[string]int64{}
	wantSum := map[string]float64{}
	for i := range cust {
		nation, ok := nationOf[cust[i]]
		if !ok || year[i] < 1995 {
			continue
		}
		wantCount[nation]++
		wantSum[nation] += price[i]
	}
	if len(got.Data) != len(wantCount) {
		t.Fatalf("groups = %d, want %d", len(got.Data), len(wantCount))
	}
	if want := []string{"c_nation", "count", "sum_o_price"}; strings.Join(got.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", got.Cols, want)
	}
	for _, row := range got.Data {
		nation := row[0].(string)
		if row[1].(int64) != wantCount[nation] {
			t.Errorf("%s count = %d, want %d", nation, row[1], wantCount[nation])
		}
		if d := row[2].(float64) - wantSum[nation]; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s sum = %v, want %v", nation, row[2], wantSum[nation])
		}
	}
}

func TestQueryRowsOrderByLimit(t *testing.T) {
	ot, _, _, year, price, _ := relAPITables(t)
	got, err := ot.Where("o_year", Eq, 1993).
		OrderBy("o_price", true).
		Limit(10).
		Rows("o_price", "o_cust")
	if err != nil {
		t.Fatal(err)
	}
	type pr struct {
		p float64
		i int
	}
	var want []pr
	for i := range price {
		if year[i] == 1993 {
			want = append(want, pr{price[i], i})
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].p > want[b].p })
	if len(got.Data) != 10 {
		t.Fatalf("rows = %d, want 10", len(got.Data))
	}
	for i, row := range got.Data {
		if row[0].(float64) != want[i].p {
			t.Fatalf("row %d price = %v, want %v", i, row[0], want[i].p)
		}
	}
}

func TestQuerySemiAntiJoinCount(t *testing.T) {
	ot, ct, cust, _, _, nationOf := relAPITables(t)
	nation0 := ct.Where("c_nation", Eq, "NATION0")
	semi, err := ot.All().SemiJoin(nation0, "o_cust", "c_name").Count()
	if err != nil {
		t.Fatal(err)
	}
	anti, err := ot.All().AntiJoin(nation0, "o_cust", "c_name").Count()
	if err != nil {
		t.Fatal(err)
	}
	var wantSemi int64
	for i := range cust {
		if nationOf[cust[i]] == "NATION0" {
			wantSemi++
		}
	}
	if semi != wantSemi {
		t.Fatalf("semi count = %d, want %d", semi, wantSemi)
	}
	if semi+anti != int64(len(cust)) {
		t.Fatalf("semi %d + anti %d != total %d", semi, anti, len(cust))
	}
}

func TestQueryJoinValidation(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	if _, err := ot.All().JoinOn(ct.All(), "no_such_col", "c_name").Count(); err == nil {
		t.Fatal("missing probe column not rejected")
	}
	if _, err := ot.All().JoinOn(ct.All(), "o_cust", "no_such_col").Count(); err == nil {
		t.Fatal("missing build column not rejected")
	}
	if _, err := ot.All().Limit(-1).Rows("o_cust"); err == nil {
		t.Fatal("negative limit not rejected")
	}
	if _, err := ot.All().GroupBy("o_year").Rows("o_year"); err == nil {
		t.Fatal("Rows on grouped query not rejected")
	}
	// Build side with its own join is rejected.
	nested := ct.All().JoinOn(ot.All(), "c_name", "o_cust")
	if _, err := ot.All().JoinOn(nested, "o_cust", "c_name").Count(); err == nil {
		t.Fatal("nested relational build side not rejected")
	}
}

// relSpanDelta converts an IOStats delta to the span IO shape.
func relSpanDelta(before, after IOStats) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         after.PagesRead - before.PagesRead,
		PagesPruned:       after.PagesPruned - before.PagesPruned,
		PagesSkipped:      after.PagesSkipped - before.PagesSkipped,
		BytesRead:         after.BytesRead - before.BytesRead,
		BytesDecompressed: after.BytesDecompressed - before.BytesDecompressed,
	}
}

func addSpanIO(a, b obs.SpanIO) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         a.PagesRead + b.PagesRead,
		PagesPruned:       a.PagesPruned + b.PagesPruned,
		PagesSkipped:      a.PagesSkipped + b.PagesSkipped,
		BytesRead:         a.BytesRead + b.BytesRead,
		BytesDecompressed: a.BytesDecompressed + b.BytesDecompressed,
	}
}

// TestExplainAnalyzeRelIOConsistent extends the IO-sum acceptance check
// to relational plans: on a joined query, the span tree's page counters
// must account exactly for the IOStats deltas of BOTH tables — the
// build-side scan against the dimension table and the probe pipeline
// against the fact table — and within the probe pipeline the stage
// children (Prepare, filters, Join, sink) must sum to the pipeline's own
// delta.
func TestExplainAnalyzeRelIOConsistent(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	ot.ResetIOStats()
	ct.ResetIOStats()
	oBefore, cBefore := ot.IOStats(), ct.IOStats()
	root, n, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("joined count is zero; the check would be vacuous")
	}
	delta := addSpanIO(relSpanDelta(oBefore, ot.IOStats()), relSpanDelta(cBefore, ct.IOStats()))
	if sum := root.SumIO(); sum != delta {
		t.Fatalf("span IO sum %+v != combined IOStats delta %+v\n%s", sum, delta, root.Render())
	}
	pipe := findSpan(root, "Pipeline[relational]")
	if pipe == nil {
		t.Fatalf("no relational pipeline span:\n%s", root.Render())
	}
	if sum := pipe.SumIO(); sum != pipe.IO() {
		t.Fatalf("pipeline stage IO sum %+v != pipeline delta %+v\n%s", sum, pipe.IO(), root.Render())
	}
	if pipe.IO().PagesRead == 0 {
		t.Fatal("relational pipeline recorded no page reads")
	}
	join := findSpan(pipe, "Join[j1 inner]")
	if join == nil {
		t.Fatalf("no join stage span:\n%s", root.Render())
	}
	if in, out := join.Rows(); in == 0 || out != n {
		t.Fatalf("join rows = %d→%d, want →%d", in, out, n)
	}
}

// TestTracedTopKSortSpan checks an ordered, limited Rows query renders
// the top-K sort sink with its row flow.
func TestTracedTopKSortSpan(t *testing.T) {
	ot, _, _, _, _, _ := relAPITables(t)
	root := obs.NewSpan("terminal")
	q := ot.Where("o_year", Eq, 1993).OrderBy("o_price", true).Limit(10)
	q = q.WithContext(obs.ContextWithSpan(q.context(), root))
	rows, err := q.Rows("o_price", "o_cust")
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	sortSpan := findSpan(root, "Sort[top 10]")
	if sortSpan == nil {
		t.Fatalf("no top-K sort span in tree:\n%s", root.Render())
	}
	if _, out := sortSpan.Rows(); out != int64(len(rows.Data)) {
		t.Fatalf("sort rows out = %d, want %d", out, len(rows.Data))
	}
}

// TestExplainAnalyzeRendersJoin checks the flight-path: a joined Count
// traced through ExplainAnalyze shows the Join stage and sink as pipeline
// stages.
func TestExplainAnalyzeRendersJoin(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	out, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Join[j1 inner]") {
		t.Fatalf("ExplainAnalyze missing Join stage:\n%s", out)
	}
	if !strings.Contains(out, "GroupBy[") {
		t.Fatalf("ExplainAnalyze missing GroupBy sink:\n%s", out)
	}
	if !strings.Contains(out, "build rows=") {
		t.Fatalf("ExplainAnalyze missing build row count:\n%s", out)
	}
}

// TestScalarTerminalsRejectRelational: a single-table terminal cannot
// express joins, grouping, ordering, or a limit, so every one of them
// must refuse such a query instead of answering it without them (a join
// whose build side matches nothing must not return every probe row).
func TestScalarTerminalsRejectRelational(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)
	base := func() *Query { return tbl.Where("status", Eq, "ERROR") }
	shapes := []struct {
		name string
		q    *Query
	}{
		{"Join", base().Join(tbl.Where("level", Eq, 99), "level")},
		{"SemiJoin", base().SemiJoin(tbl.Where("level", Eq, 99), "level", "level")},
		{"AntiJoin", base().AntiJoin(tbl.Where("level", Eq, 99), "level", "level")},
		{"GroupBy", base().GroupBy("level")},
		{"OrderBy", base().OrderBy("ts", true)},
		{"Limit", base().Limit(5)},
	}
	terminals := []struct {
		name string
		run  func(q *Query) error
	}{
		{"RowIDs", func(q *Query) error { _, err := q.RowIDs(); return err }},
		{"Ints", func(q *Query) error { _, err := q.Ints("ts"); return err }},
		{"Floats", func(q *Query) error { _, err := q.Floats("latency"); return err }},
		{"Strings", func(q *Query) error { _, err := q.Strings("status"); return err }},
		{"GroupCount", func(q *Query) error { _, err := q.GroupCount("status"); return err }},
		{"SumFloat", func(q *Query) error { _, err := q.SumFloat("latency"); return err }},
	}
	for _, sh := range shapes {
		if err := sh.q.Err(); err != nil {
			t.Fatalf("%s: build error: %v", sh.name, err)
		}
		for _, term := range terminals {
			err := term.run(sh.q)
			if err == nil || !strings.Contains(err.Error(), "use Rows or AggRows") {
				t.Errorf("%s.%s: err = %v, want a use Rows or AggRows error", sh.name, term.name, err)
			}
		}
	}
	// Count composes with joins itself: the empty build side keeps nothing.
	if n, err := shapes[0].q.Count(); err != nil || n != 0 {
		t.Fatalf("Join.Count = %d, %v; want 0", n, err)
	}
}
