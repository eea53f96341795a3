package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"codecdb"
	"codecdb/internal/core"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
	"codecdb/internal/serve"
	"codecdb/internal/tpch"
)

// The codecdb serve defaults: the caches the serve workload runs with.
const (
	servePageCache   = 256 << 20
	serveResultCache = 64 << 20
	serveClients     = 2   // closed-loop clients; the machine has 2 CPUs
	serveRelShare    = 0.1 // share of requests that are relational joins
	// serveZipfTheta is the skew of the single-table request draw: YCSB's
	// default zipfian constant (Cooper et al., "Benchmarking Cloud Serving
	// Systems with YCSB", SoCC 2010).
	serveZipfTheta   = 0.99
	serveResidualEps = 0.05 // bound on the unattributed share of a round trip
	// serveDataSeed fixes the served database: the seed drives the
	// traffic, not the data behind it.
	serveDataSeed = 1
)

// cond is one leaf predicate, rendered both as a wire predicate for
// /v1/query and as a library predicate for the reference answer.
type cond struct {
	col, op string // op is a wire operator name, or "in"
	vals    []any
}

var libOps = map[string]codecdb.CmpOp{
	"eq": codecdb.Eq, "lt": codecdb.Lt, "le": codecdb.Le, "ge": codecdb.Ge,
}

func (c cond) wire() *serve.WirePred {
	if c.op == "in" {
		return &serve.WirePred{Kind: "in", Col: c.col, Values: c.vals}
	}
	return &serve.WirePred{Kind: "cmp", Col: c.col, Op: c.op, Value: c.vals[0]}
}

func (c cond) pred() codecdb.Pred {
	if c.op == "in" {
		return codecdb.In(c.col, c.vals...)
	}
	return codecdb.Col(c.col, libOps[c.op], c.vals[0])
}

func andWire(cs []cond) *serve.WirePred {
	p := &serve.WirePred{Kind: "and"}
	for _, c := range cs {
		p.Kids = append(p.Kids, c.wire())
	}
	return p
}

func andPred(cs []cond) codecdb.Pred {
	ps := make([]codecdb.Pred, len(cs))
	for i, c := range cs {
		ps[i] = c.pred()
	}
	return codecdb.AllOf(ps...)
}

// serveReq is one request of the pool with the answer the library API
// gives for it.
type serveReq struct {
	terminal string // count, sum, group_count or rows
	where    []cond // lineitem predicate
	column   string // measured column of sum and group_count
	priority string // rows: o_orderpriority of the joined orders
	body     []byte // the POST body
	want     answer
}

// answer is the part of a /v1/query response that is checked.
type answer struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Groups  map[string]int64 `json:"groups"`
	Columns []string         `json:"columns"`
	Rows    json.RawMessage  `json:"rows"`
	WallMS  float64          `json:"wall_ms"`
	QueryID uint64           `json:"query_id"`
	Cached  bool             `json:"cached"`
}

var (
	relColumns = []string{"l_orderkey", "l_linenumber", "l_extendedprice", "o_orderpriority"}
	relOrder   = []serve.WireOrder{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}, {Col: "l_linenumber"}}
)

const relLimit = 10

func (r *serveReq) wire() *serve.QueryRequest {
	q := &serve.QueryRequest{Table: "lineitem", Terminal: r.terminal, Column: r.column, Predicate: andWire(r.where)}
	if r.terminal == "rows" {
		q.Join = &serve.WireJoin{Table: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey",
			Predicate: cond{"o_orderpriority", "eq", []any{r.priority}}.wire()}
		q.Columns, q.OrderBy, q.Limit = relColumns, relOrder, relLimit
	}
	return q
}

// query builds the request as a library query on db.
func (r *serveReq) query(db *codecdb.DB) (*codecdb.Query, error) {
	li, err := db.Table("lineitem")
	if err != nil {
		return nil, err
	}
	q := li.Query(andPred(r.where))
	if r.terminal == "rows" {
		or, err := db.Table("orders")
		if err != nil {
			return nil, err
		}
		q = q.JoinOn(or.Where("o_orderpriority", codecdb.Eq, r.priority), "l_orderkey", "o_orderkey")
		for _, o := range relOrder {
			q = q.OrderBy(o.Col, o.Desc)
		}
		q = q.Limit(relLimit)
	}
	return q, nil
}

// answerOf runs q to completion with the request's terminal.
func (r *serveReq) answerOf(q *codecdb.Query) (answer, error) {
	var a answer
	var err error
	switch r.terminal {
	case "count":
		a.Count, err = q.Count()
	case "sum":
		a.Sum, err = q.SumFloat(r.column)
	case "group_count":
		a.Groups, err = q.GroupCount(r.column)
	case "rows":
		var rows *codecdb.Rows
		if rows, err = q.Rows(relColumns...); err == nil {
			a.Columns = rows.Cols
			a.Rows, err = json.Marshal(rows.Data)
		}
	}
	return a, err
}

// matches compares a decoded response with the reference answer: counts
// and groups exactly, sums within a relative 1e-9 (the two paths may add
// in different orders), rows as identical JSON.
func (r *serveReq) matches(got answer) bool {
	switch r.terminal {
	case "count":
		return got.Count == r.want.Count
	case "sum":
		return math.Abs(got.Sum-r.want.Sum) <= 1e-9*(1+math.Abs(r.want.Sum))
	case "group_count":
		return reflect.DeepEqual(got.Groups, r.want.Groups)
	case "rows":
		var g, w bytes.Buffer
		if json.Compact(&g, got.Rows) != nil || json.Compact(&w, r.want.Rows) != nil {
			return false
		}
		return bytes.Equal(g.Bytes(), w.Bytes()) && reflect.DeepEqual(got.Columns, r.want.Columns)
	}
	return false
}

// servePool builds the request pool: 334 parameterised single-table
// requests on lineitem and 35 relational join requests. The single-table
// requests are ranked by interleaving the three templates, so the hot
// head of the Zipf draw mixes counts, sums and group counts the same
// way whatever the seed.
func servePool() (single, rel []*serveReq) {
	var counts, sums, groups []*serveReq
	modes := tpch.ShipModes
	for q := int64(5); q <= 50; q += 5 {
		for i := range modes {
			for j := i + 1; j < len(modes); j++ {
				counts = append(counts, &serveReq{terminal: "count", where: []cond{
					{"l_quantity", "lt", []any{q}},
					{"l_shipmode", "in", []any{modes[i], modes[j]}},
				}})
			}
		}
	}
	for y := 1993; y <= 1997; y++ {
		for d := 2; d <= 9; d++ {
			disc := float64(d) / 100
			sums = append(sums, &serveReq{terminal: "sum", column: "l_extendedprice", where: []cond{
				{"l_shipdate", "ge", []any{tpch.Date(y, 1, 1)}},
				{"l_shipdate", "lt", []any{tpch.Date(y+1, 1, 1)}},
				{"l_discount", "ge", []any{disc - 0.011}},
				{"l_discount", "le", []any{disc + 0.011}},
				{"l_quantity", "lt", []any{int64(24)}},
			}})
		}
	}
	for _, col := range []string{"l_returnflag", "l_linestatus", "l_shipmode"} {
		for y := 1992; y <= 1998; y++ {
			for _, md := range [][2]int{{3, 31}, {6, 30}, {9, 30}, {12, 31}} {
				groups = append(groups, &serveReq{terminal: "group_count", column: col, where: []cond{
					{"l_shipdate", "le", []any{tpch.Date(y, md[0], md[1])}},
				}})
			}
		}
	}
	for i := 0; i < len(counts); i++ {
		for _, tmpl := range [][]*serveReq{counts, sums, groups} {
			if i < len(tmpl) {
				single = append(single, tmpl[i])
			}
		}
	}
	for _, m := range modes {
		for _, p := range tpch.Priorities {
			rel = append(rel, &serveReq{terminal: "rows", priority: p, where: []cond{{"l_shipmode", "eq", []any{m}}}})
		}
	}
	return single, rel
}

// serveEnv is the database behind a live /v1/query listener.
type serveEnv struct {
	dir    string
	raw    int64
	db     *codecdb.DB
	srv    *serve.Server
	http   *http.Server
	served chan error
	url    string
	single []*serveReq
	rel    []*serveReq
}

// pool is every request, single-table then relational.
func (e *serveEnv) pool() []*serveReq {
	return append(append([]*serveReq(nil), e.single...), e.rel...)
}

// loadTPCH generates the SF 0.05 data from seed and writes it into dir
// with CodecDB's encodings, returning its raw user bytes.
func loadTPCH(dir string, seed int64) (int64, error) {
	data := tpch.Generate(tpchSF, seed)
	db, err := core.Open(dir, core.Options{})
	if err != nil {
		return 0, err
	}
	if err := tpch.LoadCodecDB(db, data, tpchLayout); err != nil {
		db.Close()
		return 0, err
	}
	return rawBytes(reflect.ValueOf(data)), db.Close()
}

// setupServe loads the fixed database, opens it with the serve defaults,
// computes every pool request's answer through the library API (which
// also warms the page cache), and starts the server on a loopback port.
func setupServe(dir string) (*serveEnv, error) {
	raw, err := loadTPCH(dir, serveDataSeed)
	if err != nil {
		return nil, err
	}
	db, err := codecdb.Open(dir, codecdb.Options{PageCacheBytes: servePageCache})
	if err != nil {
		return nil, err
	}
	env := &serveEnv{dir: dir, raw: raw, db: db}
	env.single, env.rel = servePool()
	for _, r := range env.pool() {
		if r.body, err = json.Marshal(r.wire()); err != nil {
			db.Close()
			return nil, err
		}
		q, err := r.query(db)
		if err == nil {
			r.want, err = r.answerOf(q)
		}
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("reference answer for %s: %w", r.body, err)
		}
	}
	env.srv = serve.New(db, serve.Config{ResultCacheBytes: serveResultCache})
	mux := http.NewServeMux()
	env.srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Close()
		db.Close()
		return nil, err
	}
	env.url = "http://" + ln.Addr().String() + "/v1/query"
	env.http = &http.Server{Handler: mux}
	env.served = make(chan error, 1)
	go func() { env.served <- env.http.Serve(ln) }()
	// Warm-up: every request once over HTTP, which fills the result
	// cache the way a long-running server's would be.
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, r := range env.pool() {
		got, err := post(hc, env.url, r.body)
		if err == nil && !r.matches(got) {
			err = fmt.Errorf("answer differs from the library's")
		}
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up %s: %w", r.body, err)
		}
	}
	return env, nil
}

// close stops the listener, waits for the serve loop to exit, and
// releases the server and database.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.http.Shutdown(ctx)
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve loop:", err)
	}
	e.srv.Close()
	e.db.Close()
}

// serveLoop is the outcome of the closed-loop clients.
type serveLoop struct {
	lat               []float64   // round trip ms of answered requests
	sent              [][]sentReq // each client's answered requests, in order
	attempted, failed int64
	elapsed           time.Duration
}

// opsPerS is the requests answered with 200 per second of the phase.
func (l *serveLoop) opsPerS() float64 { return ratio(float64(len(l.lat)), l.elapsed.Seconds()) }

// add appends the samples and counts of a later phase to l.
func (l *serveLoop) add(m *serveLoop) {
	l.lat = append(l.lat, m.lat...)
	l.attempted += m.attempted
	l.failed += m.failed
	l.elapsed += m.elapsed
}

// sentReq is one answered request: when its client sent it, since the
// phase began, what the client and the program measured of it over
// HTTP, and the parts its in-process replay timed (replaySlice).
type sentReq struct {
	r      *serveReq
	at     time.Duration
	rtt    float64 // the client's round trip, ms
	wall   float64 // the response's wall_ms
	cached bool    // answered from the result cache
	// exec is the wall time, in ms, of the query the request ran, as the
	// program's flight recorder measured it in this very request; 0 for
	// a result-cache hit, which runs no query. Looked up only when the
	// clients' records flag is set.
	exec float64
	// The replay's DecodeRequest, Server.Query and JSON encoding, ms;
	// replayed is false when the replay failed.
	dec, qry, enc float64
	replayed      bool
}

// zipfTable draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. It takes theta below 1, which rand.Zipf does not.
type zipfTable struct{ cum []float64 }

func newZipfTable(n int, theta float64) zipfTable {
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), theta)
		cum[k] = total
	}
	return zipfTable{cum}
}

func (z zipfTable) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, rng.Float64()*z.cum[len(z.cum)-1]), len(z.cum)-1)
}

// clients are the serveClients closed-loop clients: one HTTP transport,
// and each client's own source of request draws, seeded from the run's
// seed. A run in several phases continues each client's draws. With
// records set, each client looks up, after the round trip, the flight
// record of the query each answered request ran.
type clients struct {
	tr      *http.Transport
	hc      *http.Client
	rngs    []*rand.Rand
	zipf    zipfTable
	records bool
}

func newClients(env *serveEnv, seed int64) *clients {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	c := &clients{tr: tr, hc: &http.Client{Transport: tr}, zipf: newZipfTable(len(env.single), serveZipfTheta)}
	for i := 0; i < serveClients; i++ {
		c.rngs = append(c.rngs, rand.New(rand.NewSource(seed*1000003+int64(i))))
	}
	return c
}

func (c *clients) close() { c.tr.CloseIdleConnections() }

// run runs every client for seconds and merges their samples.
func (c *clients) run(env *serveEnv, seconds float64) *serveLoop {
	loops := make([]serveLoop, serveClients)
	sent := make([][]sentReq, serveClients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range loops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent[i] = c.loop(env, c.rngs[i], start, deadline, &loops[i])
		}(i)
	}
	wg.Wait()
	out := &serveLoop{sent: sent}
	for i := range loops {
		out.add(&loops[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// loop is one closed-loop client: it draws its next request, POSTs it,
// decodes and checks the reply, and only then sends the next, until the
// deadline. It returns the requests it had answered.
func (c *clients) loop(env *serveEnv, rng *rand.Rand, start, deadline time.Time, out *serveLoop) []sentReq {
	var sent []sentReq
	for time.Now().Before(deadline) {
		var r *serveReq
		if rng.Float64() < serveRelShare {
			r = env.rel[rng.Intn(len(env.rel))]
		} else {
			r = env.single[c.zipf.draw(rng)]
		}
		out.attempted++
		t0 := time.Now()
		got, err := post(c.hc, env.url, r.body)
		d := time.Since(t0)
		if err == nil && !r.matches(got) {
			err = fmt.Errorf("answer differs from the library's")
		}
		s := sentReq{r: r, at: t0.Sub(start), rtt: ms(d), wall: got.WallMS, cached: got.Cached}
		if err == nil && c.records && !got.Cached {
			if rec := obs.DefaultRecorder().Find(got.QueryID); rec != nil {
				s.exec = ms(rec.Wall)
			} else {
				err = fmt.Errorf("no flight record for query_id %d", got.QueryID)
			}
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", r.body, err)
			continue
		}
		out.lat = append(out.lat, s.rtt)
		sent = append(sent, s)
	}
	return sent
}

// post sends one request and decodes a 200 reply; any other status,
// including shed and admission_timeout, is an error.
func post(hc *http.Client, url string, body []byte) (answer, error) {
	var a answer
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return a, json.Unmarshal(raw, &a)
}

func runServe(cfg runConfig) (*report, error) {
	env, setupS, err := repeatSetup(cfg, "serve", setupServe, (*serveEnv).close)
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

	if !cfg.trace {
		c := newClients(env, cfg.seed)
		defer c.close()
		resetPeakRSS()
		l := c.run(env, cfg.seconds)
		if rep.m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		rep.m["ops_per_s"] = l.opsPerS()
		if err := latencyMetrics(rep, l.lat); err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = l.attempted, l.failed
		return rep, nil
	}
	c := newClients(env, cfg.seed)
	untraced := c.run(env, cfg.seconds/2)
	c.close()
	traced, err := traceServe(env, cfg.seed, cfg.seconds/2, rep)
	if err != nil {
		return nil, err
	}
	rep.m["obs.trace_overhead_ratio"] = ratio(traced.opsPerS(), untraced.opsPerS())
	rep.attempted += untraced.attempted
	rep.failed += untraced.failed
	if err := replaySpans(env, rep); err != nil {
		return nil, err
	}
	return rep, traceWritePath(cfg, rep)
}

// ioAll sums IO counters over every table of db.
func ioAll(db *codecdb.DB) (codecdb.IOStats, error) {
	var s codecdb.IOStats
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return s, err
		}
		addIO(&s, t.IOStats())
	}
	return s, nil
}

// serveSlice is the length of one HTTP slice of the traced phase. Each
// slice is replayed in process right after it, so the replay's timings
// are taken on the machine as it was during the slice.
const serveSlice = 1.0

// traceServe runs the traced phase: the clients, drawing from the same
// seed as the untraced phase, against the program's own handler, in
// slices of serveSlice seconds, each followed by its in-process replay
// (replaySlice). The counters are read around the whole phase: the
// registry's admission, wave and shed counters, the result and page
// caches' hit ratios, and colstore, xcompress and exec work. These are
// per request over the HTTP requests and their replays, which are the
// same requests. It returns the HTTP half of the work.
func traceServe(env *serveEnv, seed int64, seconds float64, rep *report) (*serveLoop, error) {
	reg0, err := ReadRegistry(codecdb.Metrics())
	if err != nil {
		return nil, err
	}
	io0, err := ioAll(env.db)
	if err != nil {
		return nil, err
	}
	rc0 := env.srv.ResultCache().Stats()
	calls0, bytes0 := codecWork()
	tasks0 := exec.GlobalStats().Completed

	c := newClients(env, seed)
	c.records = true
	defer c.close()
	l := &serveLoop{}
	var p handlerParts
	for l.elapsed.Seconds() < seconds {
		s := c.run(env, min(serveSlice, seconds-l.elapsed.Seconds()))
		l.add(s)
		p.add(replaySlice(env, s))
	}

	reg1, err := ReadRegistry(codecdb.Metrics())
	if err != nil {
		return nil, err
	}
	io1, err := ioAll(env.db)
	if err != nil {
		return nil, err
	}
	rc1 := env.srv.ResultCache().Stats()
	calls1, bytes1 := codecWork()
	rep.attempted += l.attempted + p.attempted
	rep.failed += l.failed + p.failed
	if len(l.lat) == 0 || p.n == 0 {
		return nil, fmt.Errorf("traced serve phase answered no request")
	}

	reqs := float64(l.attempted + p.attempted)
	colstoreMetrics(rep, io0, io1, reqs)
	rep.m["xcompress.decompressions"] = float64(calls1-calls0) / reqs
	rep.m["xcompress.decompressed_bytes"] = float64(bytes1-bytes0) / reqs
	rep.m["exec.tasks"] = float64(exec.GlobalStats().Completed-tasks0) / reqs

	d := reg1.Sub(reg0)
	rep.m["serve.admission_wait_ms"] = d.HistMean("codecdb_serve_admission_wait_seconds") * 1e3
	rep.m["serve.members_per_wave"] = ratio(d["codecdb_serve_wave_members_total"], d["codecdb_serve_waves_total"])
	rep.m["serve.shed"] = d["codecdb_serve_shed_total"]
	hits, misses := float64(rc1.Hits-rc0.Hits), float64(rc1.Misses-rc0.Misses)
	rep.m["serve.result_cache_hit_ratio"] = ratio(hits, hits+misses)

	// The parts must add up to the round trip. http_self_ms is the round
	// trip minus the wall_ms the response carries (the handler's time
	// from reading the body to the query's end), so this holds when the
	// decode, query and encode times add up to the wall_ms the program
	// measured over HTTP. A request that ran a query takes its query time
	// from the program's flight record of that very execution, not from
	// the replay: how long a join takes depends on which other query it
	// overlapped with, which no replay repeats.
	n := float64(p.n)
	dec, qry, enc := p.dec/n, p.qry/n, p.enc/n
	rtt, wall := p.rtt/n, p.wall/n
	self := rtt - wall
	rep.m["serve.decode_us"] = dec * 1e3
	rep.m["serve.query_ms"] = qry
	rep.m["serve.encode_us"] = enc * 1e3
	rep.m["serve.http_self_ms"] = self
	resid := math.Abs(rtt-(dec+qry+enc+self)) / rtt
	rep.m["serve.parts_residual_ratio"] = resid
	fmt.Fprintf(os.Stderr, "perfbench: serve parts sum: round trip %.4f ms (wall_ms %.4f) vs decode %.4f + query %.4f + encode %.4f + http %.4f ms, residual %.4f (ε %.2f)\n",
		rtt, wall, dec, qry, enc, self, resid, serveResidualEps)
	if resid > serveResidualEps {
		rep.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: serve parts do not add up to the round trip")
	}
	return l, nil
}

// handlerParts sums, over replayed requests, the times of each part of
// the handler's work (ms).
type handlerParts struct {
	n, attempted, failed int64
	rtt, wall            float64
	dec, qry, enc        float64
}

func (p *handlerParts) add(q handlerParts) {
	p.n, p.attempted, p.failed = p.n+q.n, p.attempted+q.attempted, p.failed+q.failed
	p.rtt, p.wall = p.rtt+q.rtt, p.wall+q.wall
	p.dec, p.qry, p.enc = p.dec+q.dec, p.qry+q.qry, p.enc+q.enc
}

// replaySlice replays, in process, the requests a slice's clients had
// answered: in the same order, from as many goroutines, each request no
// earlier than its client sent it in the slice. It times the parts of
// the handler's work — DecodeRequest, Server.Query and the response's
// JSON encoding — checks each replayed answer, and returns the parts
// summed over the replayed requests, with the query time of a request
// that ran a query over HTTP taken from its flight record.
func replaySlice(env *serveEnv, l *serveLoop) handlerParts {
	var wg sync.WaitGroup
	start := time.Now()
	for _, reqs := range l.sent {
		wg.Add(1)
		go func(reqs []sentReq) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range reqs {
				s := &reqs[i]
				time.Sleep(s.at - time.Since(start))
				r := s.r
				t0 := time.Now()
				req, err := serve.DecodeRequest(r.body)
				t1 := time.Now()
				var resp *serve.QueryResponse
				if err == nil {
					var werr *serve.WireError
					if resp, werr = env.srv.Query(context.Background(), req); werr != nil {
						err = fmt.Errorf("%s: %s", werr.Code, werr.Message)
					}
				}
				t2 := time.Now()
				if err == nil {
					buf.Reset()
					err = json.NewEncoder(&buf).Encode(resp)
				}
				t3 := time.Now()
				var got answer
				if err == nil {
					err = json.Unmarshal(buf.Bytes(), &got)
				}
				if err == nil && !r.matches(got) {
					err = fmt.Errorf("answer differs from the library's")
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: serve replay %s: %v\n", r.body, err)
					continue
				}
				s.dec, s.qry, s.enc = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
				s.replayed = true
			}
		}(reqs)
	}
	wg.Wait()
	var p handlerParts
	for _, reqs := range l.sent {
		for _, s := range reqs {
			p.attempted++
			if !s.replayed {
				p.failed++
				continue
			}
			p.n++
			p.rtt += s.rtt
			p.wall += s.wall
			p.dec += s.dec
			p.enc += s.enc
			if s.cached {
				p.qry += s.qry
			} else {
				p.qry += s.exec
			}
		}
	}
	return p
}
