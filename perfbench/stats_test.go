package main

import (
	"math"
	"math/rand"
	"testing"

	"codecdb/internal/obs"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so NewDist must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	d := NewDist(seq(1000))
	if d.N() != 1000 {
		t.Fatalf("N = %d, want 1000", d.N())
	}
	if v, ok := d.Percentile(99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := d.Percentile(50); !ok || v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500, true", v, ok)
	}
	// 999 samples leave only nine beyond the 99th percentile.
	if _, ok := NewDist(seq(999)).Percentile(99); ok {
		t.Fatal("p99 of 999 samples reported; want it omitted")
	}
	if _, ok := NewDist(seq(19)).Percentile(50); ok {
		t.Fatal("p50 of 19 samples reported; want it omitted")
	}
	if v, ok := NewDist(seq(20)).Percentile(50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := NewDist(nil).Percentile(50); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := NewDist([]float64{1, 2, 6}).Mean(); m != 3 {
		t.Fatalf("mean = %v, want 3", m)
	}
}

func TestRegistryDeltas(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	h := r.Histogram("test_op_seconds", "op latency", []float64{0.001, 0.01, 0.1})
	var fn float64
	r.CounterFunc("test_fn_total", "bridged", func() float64 { return fn })

	c.Add(5)
	h.Observe(0.0005)
	fn = 7
	before, err := ReadRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(3)
	fn = 10
	for i := 0; i < 4; i++ {
		h.Observe(0.005) // (0.001, 0.01] bucket
	}
	h.Observe(0.05) // (0.01, 0.1] bucket
	r.Counter("test_late_total", "registered mid-phase").Add(2)
	after, err := ReadRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	d := after.Sub(before)

	for name, want := range map[string]float64{
		"test_ops_total": 3, "test_fn_total": 3, "test_late_total": 2,
	} {
		if d[name] != want {
			t.Errorf("delta %s = %v, want %v", name, d[name], want)
		}
	}
	if n := d["test_op_seconds_count"]; n != 5 {
		t.Fatalf("histogram delta count = %v, want 5", n)
	}
	if m := d.HistMean("test_op_seconds"); math.Abs(m-0.014) > 1e-9 {
		t.Fatalf("histogram delta mean = %v, want 0.014", m)
	}
	// Rank 2.5 of 5 falls in (0.001, 0.01], which holds 4 of them:
	// 0.001 + 0.009*2.5/4.
	q, ok := d.HistQuantile("test_op_seconds", 0.5)
	if !ok || math.Abs(q-(0.001+0.009*2.5/4)) > 1e-12 {
		t.Fatalf("histogram delta p50 = %v, %v", q, ok)
	}
	// The observation from before the phase is not in the delta: the
	// lowest bucket is empty, so the p10 lands in the second one.
	if q, _ := d.HistQuantile("test_op_seconds", 0.1); q <= 0.001 {
		t.Fatalf("p10 = %v counts a pre-phase observation", q)
	}
	if _, ok := (Snapshot{}).HistQuantile("test_op_seconds", 0.5); ok {
		t.Fatal("quantile of an empty histogram reported")
	}
}

func TestZipfTableSkew(t *testing.T) {
	z := newZipfTable(100, 0.99)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.draw(rng)]++
	}
	// P(rank k) is proportional to 1/(k+1)^0.99: rank 0 about twice rank
	// 1 and about 90 times rank 99.
	if r := float64(counts[0]) / float64(counts[1]); r < 1.8 || r > 2.2 {
		t.Fatalf("rank 0 / rank 1 = %v, want about 2", r)
	}
	if counts[99] == 0 || counts[0] < 50*counts[99] {
		t.Fatalf("rank 0 drawn %d times, rank 99 %d times", counts[0], counts[99])
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio")
	}
}
