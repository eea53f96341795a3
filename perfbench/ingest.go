package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"codecdb"
)

const (
	// ingestSealBytes is the memtable flush threshold: many background
	// flushes per run.
	ingestSealBytes = 512 << 10
	// ingestWriters is the number of concurrent appenders. The WAL's
	// group commit makes one fsync acknowledge the appends that wait
	// together, so the rate is bound by CPU rather than by the latency
	// of single fsyncs, which on a shared disk moves by tens of percent
	// from run to run.
	ingestWriters = 16
	// ingestReadEvery is the reader's period.
	ingestReadEvery = 10 * time.Millisecond
)

var (
	ingestFields = []codecdb.Field{
		{Name: "ts", Type: codecdb.Int64Field},
		{Name: "service", Type: codecdb.StringField},
		{Name: "status", Type: codecdb.StringField},
		{Name: "code", Type: codecdb.Int64Field},
		{Name: "latency_ms", Type: codecdb.Float64Field},
	}
	services = []string{"api", "auth", "billing", "cart", "catalog", "checkout",
		"email", "gateway", "inventory", "search", "shipping", "users"}
	statuses     = []string{"OK", "WARN", "ERROR", "FATAL"}
	statusWeight = []float64{0.85, 0.09, 0.05, 0.01}
	codes        = []int64{200, 201, 204, 301, 304, 400, 401, 403, 404, 429, 500, 502, 503}
)

// event is one row of the ingest table.
type event struct {
	ts              int64
	service, status string
	code            int64
	latency         float64
}

// eventGen draws one writer's rows: low-cardinality strings, skewed
// integer codes and exponential latencies from the writer's own seeded
// source, and timestamps from a counter all writers share, so the table
// receives them in nearly sorted order.
type eventGen struct {
	rng       *rand.Rand
	svc, code *rand.Zipf
	clock     *atomic.Int64
}

func newEventGen(seed int64, writer int, clock *atomic.Int64) *eventGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(writer)))
	return &eventGen{
		rng:   rng,
		svc:   rand.NewZipf(rng, 1.3, 1, uint64(len(services)-1)),
		code:  rand.NewZipf(rng, 1.5, 1, uint64(len(codes)-1)),
		clock: clock,
	}
}

func (g *eventGen) next() event {
	st, u := 0, g.rng.Float64()
	for u > statusWeight[st] && st < len(statuses)-1 {
		u -= statusWeight[st]
		st++
	}
	return event{
		ts:      g.clock.Add(1 + g.rng.Int63n(20)),
		service: services[g.svc.Uint64()],
		status:  statuses[st],
		code:    codes[g.code.Uint64()],
		latency: math.Round(g.rng.ExpFloat64()*2000) / 100,
	}
}

// ingestLoop is the outcome of one writers-plus-reader phase.
type ingestLoop struct {
	acked             int64            // acknowledged rows
	statuses          map[string]int64 // acknowledged rows by status
	rows              []event          // the acknowledged rows
	attempted, failed int64
}

// add merges one writer's outcome into l.
func (l *ingestLoop) add(w *ingestLoop) {
	l.acked += w.acked
	for st, n := range w.statuses {
		l.statuses[st] += n
	}
	l.rows = append(l.rows, w.rows...)
	l.attempted += w.attempted
	l.failed += w.failed
}

// readBounds checks one reader answer over all rows: every row
// acknowledged before the read started must be visible, and no row the
// writers had not yet begun to append may be.
func readBounds(total, ackedBefore, startedAfter int64) error {
	if total < ackedBefore || total > startedAfter {
		return fmt.Errorf("read %d rows with %d acknowledged before and %d begun after", total, ackedBefore, startedAfter)
	}
	return nil
}

// ingestPhase creates table name and, for seconds, appends seeded rows
// from the writers while one reader runs count and group_count over the
// shards and memtable tail; then it flushes.
func ingestPhase(db *codecdb.DB, name string, seed int64, seconds float64) (*ingestLoop, error) {
	tbl, err := db.CreateIngestTable(name, ingestFields, codecdb.IngestOptions{SealBytes: ingestSealBytes})
	if err != nil {
		return nil, err
	}
	var (
		started, acked atomic.Int64
		clock          atomic.Int64
		done           = make(chan struct{})
		wg             sync.WaitGroup
		r              ingestLoop
	)
	clock.Store(1_700_000_000_000)
	wg.Add(1)
	// The reader starts a read every ingestReadEvery, or as soon as the
	// previous one ends if that took longer.
	go func() {
		defer wg.Done()
		next := time.Now()
		for {
			next = next.Add(ingestReadEvery)
			wait := time.After(time.Until(next)) // fires at once when the read ran long
			select {
			case <-done:
				return
			case <-wait:
			}
			if now := time.Now(); now.After(next) {
				next = now // skip the slots a long read missed
			}
			// One read is a count and a group count over all rows, each
			// checked against the appends around it.
			before := acked.Load()
			n, err := tbl.Where("code", codecdb.Ge, int64(0)).Count()
			if err == nil {
				err = readBounds(n, before, started.Load())
			}
			var g map[string]int64
			if err == nil {
				before = acked.Load()
				g, err = tbl.All().GroupCount("status")
			}
			r.attempted++
			if err == nil {
				var total int64
				for _, c := range g {
					total += c
				}
				err = readBounds(total, before, started.Load())
			}
			if err != nil {
				r.failed++
				fmt.Fprintln(os.Stderr, "perfbench: ingest read:", err)
			}
		}
	}()

	writers := make([]ingestLoop, ingestWriters)
	var ww sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := range writers {
		ww.Add(1)
		go func(k int) {
			defer ww.Done()
			w, gen := &writers[k], newEventGen(seed, k, &clock)
			w.statuses = map[string]int64{}
			for time.Now().Before(deadline) {
				e := gen.next()
				started.Add(1)
				err := tbl.Append(e.ts, e.service, e.status, e.code, e.latency)
				w.attempted++
				if err != nil {
					w.failed++
					fmt.Fprintln(os.Stderr, "perfbench: ingest append:", err)
					continue
				}
				acked.Add(1)
				w.acked++
				w.statuses[e.status]++
				w.rows = append(w.rows, e)
			}
		}(k)
	}
	ww.Wait()
	close(done)
	wg.Wait()
	out := &ingestLoop{statuses: map[string]int64{}}
	for k := range writers {
		out.add(&writers[k])
	}
	out.attempted += r.attempted
	out.failed += r.failed
	if err := tbl.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	return out, nil
}

// checkReopened verifies a table after the database was reopened: its
// row count, a full count, and the status histogram all match the
// acknowledged rows.
func checkReopened(tbl *codecdb.Table, l *ingestLoop) error {
	n, err := tbl.Where("code", codecdb.Ge, int64(0)).Count()
	if err != nil {
		return err
	}
	g, err := tbl.All().GroupCount("status")
	if err != nil {
		return err
	}
	if tbl.NumRows() != l.acked || n != l.acked || !reflect.DeepEqual(g, l.statuses) {
		return fmt.Errorf("after reopen: %d rows, count %d, groups %v; want %d rows, groups %v",
			tbl.NumRows(), n, g, l.acked, l.statuses)
	}
	return nil
}

// writePathSeconds is the length of the ingest phase that serve's traced
// run makes for the write-path layers.
const writePathSeconds = 10

// traceWritePath measures the write-path layers (wal, shard, selector),
// which neither workload runs. In a directory of its own it trains the
// default encoding selector, opens a database with it, and appends
// seeded rows for writePathSeconds with the registry read around the
// phase: the WAL's fsync batching, the flushes, and the selector's cost
// per flushed column. Then it closes and reopens the database, times the
// recovery, and checks that exactly the acknowledged rows came back. Its
// checked operations join rep.
func traceWritePath(cfg runConfig, rep *report) error {
	dir, err := os.MkdirTemp(cfg.dir, "writepath-")
	if err != nil {
		return err
	}
	sel, err := codecdb.TrainDefaultSelector(cfg.seed)
	if err != nil {
		return err
	}
	db, err := codecdb.Open(dir, codecdb.Options{Selector: sel})
	if err != nil {
		return err
	}
	reg0, err := ReadRegistry(codecdb.Metrics())
	if err != nil {
		db.Close()
		return err
	}
	l, err := ingestPhase(db, "events", cfg.seed, writePathSeconds)
	if err != nil {
		db.Close()
		return err
	}
	reg1, err := ReadRegistry(codecdb.Metrics())
	if err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	d := reg1.Sub(reg0)
	fsyncs := d["codecdb_wal_fsyncs_total"]
	rep.m["wal.fsyncs"] = fsyncs
	rep.m["wal.appends_per_fsync"] = ratio(d["codecdb_wal_appends_total"], fsyncs)
	if p50, ok := d.HistQuantile("codecdb_wal_fsync_seconds", 0.5); ok {
		rep.m["wal.fsync_p50_ms"] = p50 * 1e3
	}
	flushes := d["codecdb_flushes_total"]
	rep.m["shard.flushes"] = flushes
	rep.m["shard.flush_ms"] = d.HistMean("codecdb_flush_seconds") * 1e3

	// The selector's cost, timed from outside on the columns of each
	// flush: the phase's rows cut into flush-sized chunks.
	perFlush := int(ratio(d["codecdb_flush_rows_total"], flushes))
	if perFlush == 0 {
		return fmt.Errorf("write-path phase flushed nothing")
	}
	var spent time.Duration
	var calls int
	for lo := 0; lo < len(l.rows); lo += perFlush {
		chunk := l.rows[lo:min(lo+perFlush, len(l.rows))]
		ts, code := make([]int64, len(chunk)), make([]int64, len(chunk))
		svc, st := make([][]byte, len(chunk)), make([][]byte, len(chunk))
		for i, e := range chunk {
			ts[i], code[i], svc[i], st[i] = e.ts, e.code, []byte(e.service), []byte(e.status)
		}
		t0 := time.Now()
		sel.SelectInt(ts)
		sel.SelectInt(code)
		sel.SelectString(svc)
		sel.SelectString(st)
		spent += time.Since(t0)
		calls += 4
	}
	rep.m["selector.select_us_per_column"] = float64(spent.Nanoseconds()) / 1e3 / float64(calls)

	// Reopen: recovery must restore exactly the acknowledged rows.
	t0 := time.Now()
	db, err = codecdb.Open(dir, codecdb.Options{Selector: sel})
	if err != nil {
		return err
	}
	defer db.Close()
	tbl, err := db.Table("events")
	if err != nil {
		return err
	}
	rep.m["shard.recovery_s"] = time.Since(t0).Seconds()
	rep.attempted += l.attempted
	rep.failed += l.failed
	if err := checkReopened(tbl, l); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write path:", err)
		rep.correct = false
		rep.failed++
	}
	fmt.Fprintf(os.Stderr, "perfbench: write path: %d rows acknowledged in %ds, %.0f flushes\n",
		l.acked, writePathSeconds, flushes)
	return nil
}
