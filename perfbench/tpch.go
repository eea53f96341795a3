package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/exec"
	"codecdb/internal/memtable"
	"codecdb/internal/tpch"
	"codecdb/internal/xcompress"
)

// tpchSF is the TPC-H scale factor of the tpch and serve workloads:
// about 300k lineitem rows and 27 MB on disk.
const tpchSF = 0.05

// tpchLayout is the row-group and page layout the TPC-H loaders use.
var tpchLayout = colstore.Options{RowGroupRows: 65536, PageRows: 8192}

// minSamples gives the 99th percentile ten samples beyond it.
const minSamples = 1000

// tpchEnv is a loaded SF 0.05 database with its warm-up answers.
type tpchEnv struct {
	dir string
	db  *core.DB
	ts  *tpch.Tables
	raw int64                                   // raw user bytes of the generated data
	ref [tpch.QueryCount + 1]*memtable.RowTable // warm-up answer of each query
}

// setupTPCH generates the data from seed, loads it with CodecDB's
// encodings, and runs one warm-up pass whose answers every timed run is
// compared with. The page cache stays off, the library default.
func setupTPCH(seed int64) func(dir string) (*tpchEnv, error) {
	return func(dir string) (*tpchEnv, error) {
		data := tpch.Generate(tpchSF, seed)
		db, err := core.Open(dir, core.Options{})
		if err != nil {
			return nil, err
		}
		env := &tpchEnv{dir: dir, db: db, raw: rawBytes(reflect.ValueOf(data))}
		if err := tpch.LoadCodecDB(db, data, tpchLayout); err != nil {
			db.Close()
			return nil, err
		}
		if env.ts, err = tpch.OpenTables(db); err != nil {
			db.Close()
			return nil, err
		}
		for q := 1; q <= tpch.QueryCount; q++ {
			if env.ref[q], err = env.ts.CodecDB(q); err != nil {
				db.Close()
				return nil, fmt.Errorf("warm-up Q%d: %w", q, err)
			}
		}
		return env, nil
	}
}

func (e *tpchEnv) close() { e.db.Close() }

// rawBytes is the user data's size before encoding: 8 bytes per int64 or
// float64 value plus the length of each string, summed over every column
// slice reachable from v.
func rawBytes(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return rawBytes(v.Elem())
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += rawBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Int64, reflect.Float64:
			return 8 * int64(v.Len())
		case reflect.Slice: // [][]byte
			var n int64
			for i := 0; i < v.Len(); i++ {
				n += int64(v.Index(i).Len())
			}
			return n
		}
	}
	return 0
}

// roundingUnit is the last place of the 2-decimal rounding the TPC-H
// plans apply to float aggregates. Partial sums merge in an order that
// depends on which worker ran which morsel, so a sum lying on a
// half-cent boundary can round either way from one run to the next.
const roundingUnit = 0.01

// rowsEqual compares two query results row by row; floats agree within
// a relative 1e-6, the tolerance the repository's own plan-equivalence
// tests use, plus one rounding unit.
func rowsEqual(a, b *memtable.RowTable) bool {
	if a == nil || b == nil || a.NumRows() != b.NumRows() {
		return false
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		if len(ra) != len(rb) {
			return false
		}
		for c := range ra {
			switch va := ra[c].(type) {
			case float64:
				vb, ok := rb[c].(float64)
				if !ok || math.Abs(va-vb) > 1e-6*(1+math.Abs(va))+roundingUnit {
					return false
				}
			case memtable.Binary:
				vb, ok := rb[c].(memtable.Binary)
				if !ok || !va.Equal(vb) {
					return false
				}
			default:
				if ra[c] != rb[c] {
					return false
				}
			}
		}
	}
	return true
}

// tpchLoop is the outcome of running passes of the 22 queries.
type tpchLoop struct {
	lat       []float64 // ms per query
	busy      time.Duration
	elapsed   time.Duration
	attempted int64
	failed    int64
	passed    [tpch.QueryCount + 1]int64 // answers that matched the warm-up answer
}

// opsPerS is the queries answered correctly per second of the phase.
func (l *tpchLoop) opsPerS() float64 { return ratio(float64(len(l.lat)), l.elapsed.Seconds()) }

// queryHook, when set, brackets each query of a traced pass.
type queryHook struct {
	before func(q int)
	after  func(q int, d time.Duration)
}

// runPasses runs whole passes in fixed query order until seconds of
// query time have elapsed and, when need > 0, at least need answers are
// in — though never past maxSeconds. Each answer is compared with the
// warm-up answer outside the query's own time.
func runPasses(env *tpchEnv, seconds, maxSeconds float64, need int, hook *queryHook, onPass func(wall time.Duration, sum time.Duration)) *tpchLoop {
	l := &tpchLoop{}
	start := time.Now()
	for {
		el := time.Since(start).Seconds()
		if el >= maxSeconds || (l.busy.Seconds() >= seconds && len(l.lat) >= need) {
			l.elapsed = time.Since(start)
			return l
		}
		passStart := time.Now()
		var sum time.Duration
		for q := 1; q <= tpch.QueryCount; q++ {
			if hook != nil {
				hook.before(q)
			}
			t0 := time.Now()
			res, err := env.ts.CodecDB(q)
			d := time.Since(t0)
			if hook != nil {
				hook.after(q, d)
			}
			sum += d
			l.busy += d
			l.attempted++
			if err != nil || !rowsEqual(res, env.ref[q]) {
				l.failed++
				fmt.Fprintf(os.Stderr, "perfbench: tpch Q%d answer differs from warm-up (err=%v)\n", q, err)
				continue
			}
			l.passed[q]++
			l.lat = append(l.lat, ms(d))
		}
		if onPass != nil {
			onPass(time.Since(passStart), sum)
		}
	}
}

// checkOracle compares each warm-up answer with the decode-first
// oblivious plan and counts failed every timed answer that matched a
// wrong warm-up answer.
func checkOracle(env *tpchEnv, loops []*tpchLoop, rep *report) {
	for q := 1; q <= tpch.QueryCount; q++ {
		want, err := env.ts.Oblivious(q)
		if err == nil && rowsEqual(env.ref[q], want) {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: tpch Q%d differs from the oblivious oracle (err=%v)\n", q, err)
		rep.correct = false
		for _, l := range loops {
			l.failed += l.passed[q]
		}
	}
}

func runTPCH(cfg runConfig) (*report, error) {
	env, setupS, err := repeatSetup(cfg, "tpch", setupTPCH(cfg.seed), (*tpchEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	rep.m["setup_s"] = setupS
	disk, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	rep.m["storage_ratio"] = float64(disk) / float64(env.raw)
	fmt.Fprintf(os.Stderr, "perfbench: tpch SF %.2f, %d lineitem rows, %d B on disk, %d B raw\n",
		tpchSF, env.ts.L.NumRows(), disk, env.raw)

	var loops []*tpchLoop
	if !cfg.trace {
		resetPeakRSS()
		l := runPasses(env, cfg.seconds, 2.5*cfg.seconds, minSamples, nil, nil)
		if rep.m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		rep.m["ops_per_s"] = l.opsPerS()
		if err := latencyMetrics(rep, l.lat); err != nil {
			return nil, err
		}
		loops = append(loops, l)
	} else {
		untraced := runPasses(env, cfg.seconds/2, cfg.seconds, 0, nil, nil)
		traced, err := tracePasses(env, cfg.seconds/2, rep)
		if err != nil {
			return nil, err
		}
		rep.m["obs.trace_overhead_ratio"] = ratio(traced.opsPerS(), untraced.opsPerS())
		if err := pageKernels(env.ts, rep); err != nil {
			return nil, err
		}
		loops = append(loops, untraced, traced)
	}
	checkOracle(env, loops, rep)
	for _, l := range loops {
		rep.attempted += l.attempted
		rep.failed += l.failed
	}
	return rep, nil
}

// ioSum adds up the IO counters of every TPC-H reader.
func ioSum(ts *tpch.Tables) colstore.IOStats {
	var s colstore.IOStats
	for _, r := range ts.Readers() {
		addIO(&s, r.Stats())
	}
	return s
}

// addIO adds the cumulative counters of st to s.
func addIO(s *colstore.IOStats, st colstore.IOStats) {
	s.PagesRead += st.PagesRead
	s.PagesPruned += st.PagesPruned
	s.PagesSkipped += st.PagesSkipped
	s.PagesCoalesced += st.PagesCoalesced
	s.BytesRead += st.BytesRead
	s.BytesDecompressed += st.BytesDecompressed
	s.IONanos += st.IONanos
	s.PrefetchHits += st.PrefetchHits
	s.PrefetchMisses += st.PrefetchMisses
	s.PageCacheHits += st.PageCacheHits
	s.PageCacheMisses += st.PageCacheMisses
}

// colstoreMetrics records the per-operation colstore counters between
// two readings, over ops operations.
func colstoreMetrics(rep *report, before, after colstore.IOStats, ops float64) {
	per := func(a, b int64) float64 { return ratio(float64(a-b), ops) }
	rep.m["colstore.pages_read"] = per(after.PagesRead, before.PagesRead)
	rep.m["colstore.pages_pruned"] = per(after.PagesPruned, before.PagesPruned)
	rep.m["colstore.pages_skipped"] = per(after.PagesSkipped, before.PagesSkipped)
	rep.m["colstore.pages_coalesced"] = per(after.PagesCoalesced, before.PagesCoalesced)
	rep.m["colstore.bytes_read"] = per(after.BytesRead, before.BytesRead)
	rep.m["colstore.bytes_decompressed"] = per(after.BytesDecompressed, before.BytesDecompressed)
	rep.m["colstore.io_ms"] = per(after.IONanos, before.IONanos) / 1e6
	hits, misses := float64(after.PrefetchHits-before.PrefetchHits), float64(after.PrefetchMisses-before.PrefetchMisses)
	rep.m["colstore.prefetch_hit_ratio"] = ratio(hits, hits+misses)
	ch, cm := float64(after.PageCacheHits-before.PageCacheHits), float64(after.PageCacheMisses-before.PageCacheMisses)
	rep.m["colstore.pagecache_hit_ratio"] = ratio(ch, ch+cm)
}

// codecWork sums decompression calls and output bytes over codecs.
func codecWork() (calls, bytes int64) {
	for _, cs := range xcompress.DecompressStats() {
		calls += cs.Decompressions
		bytes += cs.DecompressedBytes
	}
	return calls, bytes
}

// tpchResidualEps bounds |pass wall − Σ query walls| / pass wall: the
// only time in a pass outside the queries is the answer check and the
// counter reads between them.
const tpchResidualEps = 0.02

// tracePasses runs passes with each query bracketed by reader-counter
// and heap-allocation readings, and records per query its mean wall
// time, pages read and allocations, plus per-pass colstore, xcompress
// and exec work. It checks that the query times sum to the pass time.
func tracePasses(env *tpchEnv, seconds float64, rep *report) (*tpchLoop, error) {
	var (
		qMS, qPages, qAllocs [tpch.QueryCount + 1]float64
		ioBefore             colstore.IOStats
		ms0                  runtime.MemStats
		passes               int
		wallSum, partsSum    time.Duration
	)
	hook := &queryHook{
		// The counter reads are ordered so their own allocations fall
		// outside the Mallocs delta.
		before: func(q int) {
			ioBefore = ioSum(env.ts)
			runtime.ReadMemStats(&ms0)
		},
		after: func(q int, d time.Duration) {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			io := ioSum(env.ts)
			qMS[q] += ms(d)
			qPages[q] += float64(io.PagesRead - ioBefore.PagesRead)
			qAllocs[q] += float64(ms1.Mallocs - ms0.Mallocs)
		},
	}
	io0 := ioSum(env.ts)
	calls0, bytes0 := codecWork()
	tasks0 := exec.GlobalStats().Completed
	l := runPasses(env, seconds, 2*seconds, 0, hook, func(wall, sum time.Duration) {
		passes++
		wallSum += wall
		partsSum += sum
	})
	if passes == 0 {
		return nil, fmt.Errorf("traced phase ran no pass")
	}
	n := float64(passes)
	colstoreMetrics(rep, io0, ioSum(env.ts), n)
	calls1, bytes1 := codecWork()
	rep.m["xcompress.decompressions"] = float64(calls1-calls0) / n
	rep.m["xcompress.decompressed_bytes"] = float64(bytes1-bytes0) / n
	rep.m["exec.tasks"] = float64(exec.GlobalStats().Completed-tasks0) / n
	for q := 1; q <= tpch.QueryCount; q++ {
		rep.m[qName(q, "ms")] = qMS[q] / n
		rep.m[qName(q, "pages_read")] = qPages[q] / n
		rep.m[qName(q, "allocs")] = qAllocs[q] / n
	}
	resid := math.Abs(float64(wallSum-partsSum)) / float64(wallSum)
	rep.m["tpch.parts_residual_ratio"] = resid
	fmt.Fprintf(os.Stderr, "perfbench: tpch parts sum: pass wall %.2f ms, Σ query %.2f ms, residual %.4f (ε %.2f) over %d passes\n",
		ms(wallSum)/n, ms(partsSum)/n, resid, tpchResidualEps, passes)
	if resid > tpchResidualEps {
		rep.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: tpch per-query times do not add up to the pass time")
	}
	return l, nil
}
