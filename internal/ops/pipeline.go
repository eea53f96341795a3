package ops

import (
	"fmt"
	"time"

	"context"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
)

// This file is the morsel-driven pipelined executor (paper §5.2 taken to
// its conclusion): instead of running each operator over the whole table
// behind a barrier, a planned query compiles into a per-row-group pipeline
// — filter conjuncts in planned order, then the terminal's selective
// gather and partial aggregation — and pool workers each claim one row
// group at a time and run it through the entire pipeline with
// worker-local state. Every selected page is fetched, verified, and
// decompressed at most once per query, intermediates never exceed one row
// group, and no operator waits for another to finish the table.

// TermKind names the terminal a pipeline feeds.
type TermKind int

const (
	// TermCount counts selected rows.
	TermCount TermKind = iota
	// TermRowIDs collects global ids of selected rows.
	TermRowIDs
	// TermInts gathers an integer column.
	TermInts
	// TermFloats gathers a float column.
	TermFloats
	// TermStrings gathers a string column.
	TermStrings
	// TermGroupCount array-aggregates counts by dictionary key.
	TermGroupCount
	// TermSumFloat sums a float column over the selection.
	TermSumFloat
	// TermRel feeds a relational plan: join/filter stages then a grouped
	// or collected sink (see RelPlan).
	TermRel
)

// String names the terminal for display (flight recorder, debug pages).
func (t TermKind) String() string {
	switch t {
	case TermCount:
		return "Count"
	case TermRowIDs:
		return "RowIDs"
	case TermInts:
		return "Ints"
	case TermFloats:
		return "Floats"
	case TermStrings:
		return "Strings"
	case TermGroupCount:
		return "GroupCount"
	case TermSumFloat:
		return "SumFloat"
	case TermRel:
		return "Rel"
	}
	return "?"
}

// PipelineResult carries whichever output the terminal produced; Count is
// always the selected-row cardinality.
type PipelineResult struct {
	Count   int64
	RowIDs  []int64
	Ints    []int64
	Floats  []float64
	Strings [][]byte
	Group   *AggResult
	Sum     float64
	Rel     *Batch
}

// pipeLeaf is one compiled filter stage: the prepared filter plus the
// bookkeeping the traced path needs (stable stage index, display name,
// planner estimate). name is only rendered when traced, so untraced
// builds leave it empty rather than paying a format per query.
type pipeLeaf struct {
	idx  int
	name string
	f    Filter
	est  float64
	pf   preparedFilter
}

// pipeNode mirrors the plan tree over compiled leaves, preserving the
// planner's execution order.
type pipeNode struct {
	kind PredKind
	leaf *pipeLeaf // PredLeaf, PredNot
	kids []*pipeNode
}

// pipeline is one compiled query: the filter tree, the terminal, and the
// per-query constants every worker shares read-only.
type pipeline struct {
	r    *colstore.Reader
	pool *exec.Pool

	root   *pipeNode
	leaves []*pipeLeaf

	term TermKind
	col  string
	ci   int

	// rel is the relational plan a TermRel pipeline executes after its
	// filter stages: per-row-group join probes and residual filters, then
	// a grouped or collected sink.
	rel *RelPlan

	// fetch is the per-query page prefetcher (nil when prefetch is off or
	// nothing is worth scheduling). It is started before the morsel loop and closed when
	// the run returns.
	fetch *colstore.PageFetcher

	keySpace int
	aggKinds []AggKind
	aggSpecs []VecAgg

	// rgStart is each row group's first global row id (TermRowIDs).
	rgStart []int64

	traced  bool
	workers []*pipeWorker

	// slab storage for the compiled tree and the worker states: the hot
	// path builds one pipeline per query, so nodes, leaves, workers, and
	// kernel slots come out of backing arrays instead of one heap object
	// each. Small trees (the common case) fit the inline arrays and cost
	// no allocation at all beyond the pipeline itself.
	leafBuf []pipeLeaf
	nodeBuf []pipeNode
	wbuf    []pipeWorker
	kbuf    []filterRG
	leafArr [4]pipeLeaf
	nodeArr [8]pipeNode
	lptrArr [4]*pipeLeaf

	// parts and res live in the pipeline so a run allocates neither.
	parts pipeParts
	res   PipelineResult
}

// stageStats is one stage's merged-across-morsels measurement: row flow,
// summed worker busy time, and whether a pushed selection ever restricted
// the stage.
type stageStats struct {
	rowsIn  int64
	rowsOut int64
	nanos   int64
	pushed  bool
}

// pipeWorker is the worker-local execution state: one scratch arena, one
// kernel instance per filter stage, partial terminal accumulators, and —
// when traced — per-stage IO taps and row/time stats. Nothing here is
// shared between workers, so morsels run lock-free.
type pipeWorker struct {
	p       *pipeline
	sc      *arena.Scratch
	kernels []filterRG
	count   int64
	agg     *PartialArrayAgg
	taps    []colstore.IOTap
	stats   []stageStats

	// relational sink partials (TermRel): one of these per worker.
	relGroup *relGroupAcc
	relTop   *relTopK
}

// pipeParts holds per-row-group output slots; workers write disjoint
// indices, so the final concatenation needs no synchronization.
type pipeParts struct {
	rowIDs [][]int64
	ints   [][]int64
	floats [][]float64
	strs   [][][]byte
	// sums holds one partial sum per row group; the merge folds them in
	// row-group order, so the result does not depend on which worker
	// claimed which morsel.
	sums []float64
	// rel holds one collected batch fragment per row group (TermRel with
	// an unsorted or fully-sorted collect sink).
	rel []*Batch
}

// buildPipeline compiles a planned query against one reader: every plan
// leaf is prepared into a kernel, terminal columns are resolved, and — because lazy
// dictionary faults bypass the per-stage IO taps — every dictionary any
// stage could touch is faulted now, inside the Prepare window.
func buildPipeline(r *colstore.Reader, pool *exec.Pool, pl *Plan, term TermKind, col string, rp *RelPlan, traced bool) (*pipeline, error) {
	p := &pipeline{r: r, pool: pool, term: term, col: col, ci: -1, traced: traced}
	if pl != nil {
		nLeaves, nNodes := countPlan(pl.Root)
		if nLeaves <= len(p.leafArr) {
			p.leafBuf = p.leafArr[:0]
			p.leaves = p.lptrArr[:0]
		} else {
			p.leafBuf = make([]pipeLeaf, 0, nLeaves)
			p.leaves = make([]*pipeLeaf, 0, nLeaves)
		}
		if nNodes <= len(p.nodeArr) {
			p.nodeBuf = p.nodeArr[:0]
		} else {
			p.nodeBuf = make([]pipeNode, 0, nNodes)
		}
		root, err := p.compileNode(pl.Root)
		if err != nil {
			return nil, err
		}
		p.root = root
		if traced {
			p.prefaultDicts(pl.Root.Pred)
		}
	}
	switch term {
	case TermInts, TermFloats, TermStrings, TermSumFloat:
		ci, c, err := r.Column(col)
		if err != nil {
			return nil, err
		}
		p.ci = ci
		p.faultDict(ci, c)
	case TermGroupCount:
		ci, c, err := r.Column(col)
		if err != nil {
			return nil, err
		}
		p.ci = ci
		ks, err := dictLength(r, ci, c)
		if err != nil {
			return nil, err
		}
		if ks <= 0 {
			return nil, fmt.Errorf("ops: non-positive key space %d", ks)
		}
		p.keySpace = ks
		p.aggKinds = []AggKind{AggCount}
		p.aggSpecs = []VecAgg{{Kind: AggCount}}
	case TermRowIDs:
		p.rgStart = make([]int64, r.NumRowGroups())
		var off int64
		for i := range p.rgStart {
			p.rgStart[i] = off
			off += int64(r.RowGroupRows(i))
		}
	case TermRel:
		if rp == nil {
			return nil, fmt.Errorf("ops: TermRel pipeline without a relational plan")
		}
		p.rel = rp
		if err := p.buildRel(rp); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// relStageCount reports how many relational stages sit between the filter
// stages and the sink (0 for scalar terminals).
func (p *pipeline) relStageCount() int {
	if p.rel == nil {
		return 0
	}
	return len(p.rel.Stages)
}

// countPlan sizes the compile slabs: leaves and total nodes in the plan
// tree.
func countPlan(n *PlanNode) (leaves, nodes int) {
	nodes = 1
	switch n.Pred.Kind {
	case PredLeaf, PredNot:
		leaves = 1
	default:
		for _, kid := range n.Kids {
			l, nd := countPlan(kid)
			leaves += l
			nodes += nd
		}
	}
	return leaves, nodes
}

// compileNode turns one plan node into its pipeline mirror, appending
// leaves depth-first in planned order so stage indices follow execution
// order. Nodes and leaves come out of the pre-sized slabs, so the
// returned pointers stay valid for the pipeline's lifetime.
func (p *pipeline) compileNode(n *PlanNode) (*pipeNode, error) {
	switch n.Pred.Kind {
	case PredLeaf, PredNot:
		pf, err := n.Pred.Leaf.prepare(p.r)
		if err != nil {
			return nil, err
		}
		name := ""
		if p.traced {
			name = FilterName(n.Pred.Leaf)
		}
		p.leafBuf = append(p.leafBuf, pipeLeaf{idx: len(p.leaves), name: name, f: n.Pred.Leaf, est: n.Est.Sel, pf: pf})
		lf := &p.leafBuf[len(p.leafBuf)-1]
		p.leaves = append(p.leaves, lf)
		p.nodeBuf = append(p.nodeBuf, pipeNode{kind: n.Pred.Kind, leaf: lf})
		return &p.nodeBuf[len(p.nodeBuf)-1], nil
	case PredAnd, PredOr:
		p.nodeBuf = append(p.nodeBuf, pipeNode{kind: n.Pred.Kind, kids: make([]*pipeNode, 0, len(n.Kids))})
		node := &p.nodeBuf[len(p.nodeBuf)-1]
		for _, kid := range n.Kids {
			cn, err := p.compileNode(kid)
			if err != nil {
				return nil, err
			}
			node.kids = append(node.kids, cn)
		}
		return node, nil
	}
	return nil, fmt.Errorf("ops: unknown predicate kind %d", n.Pred.Kind)
}

// filterColumns lists the columns a package filter reads.
func filterColumns(f Filter) []string {
	switch t := f.(type) {
	case *DictFilter:
		return []string{t.Col}
	case *DictInFilter:
		return []string{t.Col}
	case *DictLikeFilter:
		return []string{t.Col}
	case *BitPackedFilter:
		return []string{t.Col}
	case *DictIntPredFilter:
		return []string{t.Col}
	case *TwoColumnFilter:
		return []string{t.ColA, t.ColB}
	case *DeltaFilter:
		return []string{t.Col}
	case *IntPredicateFilter:
		return []string{t.Col}
	case *StrPredicateFilter:
		return []string{t.Col}
	case *FloatPredicateFilter:
		return []string{t.Col}
	}
	return nil
}

// prefaultDicts faults the dictionary of every dict-encoded column the
// predicate tree touches. Dictionary reads bump the reader's byte counters
// without flowing through any chunk tap, so letting a worker fault one
// mid-morsel would leave IO the stage taps cannot account for; faulting
// during build keeps the traced invariant (Prepare + Σ stages = pipeline)
// exact. Errors are ignored — the owning filter surfaces them with its own
// message when it runs.
func (p *pipeline) prefaultDicts(pred *Pred) {
	switch pred.Kind {
	case PredLeaf, PredNot:
		for _, name := range filterColumns(pred.Leaf) {
			if ci, c, err := p.r.Column(name); err == nil {
				p.faultDict(ci, c)
			}
		}
	case PredAnd, PredOr:
		for _, kid := range pred.Kids {
			p.prefaultDicts(kid)
		}
	}
}

// faultDict loads a dict-encoded column's dictionary into the reader's
// cache, attributing the read to the caller's window. Untraced runs skip
// it: a lazy fault mid-morsel books into the global counters correctly,
// and only the traced per-stage invariant needs the read pinned to the
// Prepare window.
func (p *pipeline) faultDict(ci int, c *colstore.Column) {
	if !p.traced {
		return
	}
	if c.Encoding != encoding.KindDict && c.Encoding != encoding.KindDictRLE {
		return
	}
	switch c.Type {
	case colstore.TypeInt64:
		_, _ = p.r.IntDict(ci)
	case colstore.TypeString:
		_, _ = p.r.StrDict(ci)
	}
}

// dictLength returns the dictionary cardinality — the array-aggregation
// key space.
func dictLength(r *colstore.Reader, ci int, c *colstore.Column) (int, error) {
	switch c.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		return len(dict), err
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		return len(dict), err
	}
	return 0, fmt.Errorf("ops: column %s has no dictionary", c.Name)
}

// newWorker builds one worker's private state in slot wi of the worker
// slab: scratch, one kernel instance per stage (lazily built lookup
// tables live in the kernel closure), a partial aggregate table, and
// per-stage taps when traced. Slots are disjoint slices of shared
// backing arrays; each is written by exactly one worker goroutine.
func (p *pipeline) newWorker(wi int) *pipeWorker {
	nk := len(p.leaves)
	w := &p.wbuf[wi]
	w.p = p
	w.sc = arena.Get()
	w.kernels = p.kbuf[wi*nk : (wi+1)*nk : (wi+1)*nk]
	for i, lf := range p.leaves {
		if !lf.pf.empty && lf.pf.newKernel != nil {
			w.kernels[i] = lf.pf.newKernel()
		}
	}
	if p.term == TermGroupCount {
		w.agg = NewPartialArrayAgg(p.keySpace, p.aggKinds)
	}
	if p.rel != nil {
		switch {
		case p.rel.Sink.Group != nil:
			w.relGroup = newRelGroupAcc(p.rel.Sink.Group, p.rel.Sink.Inputs)
		case p.rel.Sink.Collect != nil && p.rel.Sink.Collect.K > 0:
			w.relTop = newRelTopK(&p.rel.Sink)
		}
	}
	if p.traced {
		w.taps = make([]colstore.IOTap, nk+p.relStageCount()+1)
		w.stats = make([]stageStats, nk+p.relStageCount()+1)
	}
	return w
}

// run executes the compiled pipeline: every row group claimed
// morsel-at-a-time and driven through filters and terminal by one worker,
// then a final merge of the worker partials.
func (p *pipeline) run(ctx context.Context) (*PipelineResult, error) {
	n := p.r.NumRowGroups()
	parts := p.initParts(n)
	nw := p.pool.Size()
	if lim := MaxWorkersFrom(ctx); lim > 0 && nw > lim {
		nw = lim
	}
	if nw > n {
		nw = n
	}
	p.initWorkers(nw)
	var hooks exec.MorselHooks
	if f := p.buildFetcher(ctx); f != nil {
		p.fetch = f
		defer f.Close()
		ctx = colstore.ContextWithFetcher(ctx, f)
		// Release a row group's staged pages the moment its morsel
		// finishes, so the budget recycles into lookahead.
		hooks.OnDone = f.FinishGroup
	}
	if lq := obs.QueryFrom(ctx); lq != nil {
		// Flight-recorder progress: the live entry learns the scan size
		// here and ticks per finished morsel. One atomic add per morsel;
		// queries outside a recorded terminal skip the whole block.
		lq.AddMorsels(n, nw)
		prev := hooks.OnDone
		hooks.OnDone = func(m int) {
			if prev != nil {
				prev(m)
			}
			lq.MorselDone()
		}
	}
	workers, err := exec.ParallelMorselsLimited(ctx, p.pool, n, nw,
		p.newWorker,
		func(mctx context.Context, w *pipeWorker, rg int) error {
			return p.runMorsel(mctx, w, rg, parts)
		}, hooks)
	p.workers = workers
	p.releaseWorkers(workers)
	if err != nil {
		return nil, err
	}
	return p.merge(workers), nil
}

// initParts sizes the per-row-group output slots for n morsels and
// returns them; workers write disjoint indices.
func (p *pipeline) initParts(n int) *pipeParts {
	parts := &p.parts
	switch p.term {
	case TermRowIDs:
		parts.rowIDs = make([][]int64, n)
	case TermInts:
		parts.ints = make([][]int64, n)
	case TermFloats:
		parts.floats = make([][]float64, n)
	case TermStrings:
		parts.strs = make([][][]byte, n)
	case TermSumFloat:
		parts.sums = make([]float64, n)
	case TermRel:
		if p.rel.Sink.Collect != nil && p.rel.Sink.Collect.K == 0 {
			parts.rel = make([]*Batch, n)
		}
	}
	return parts
}

// initWorkers sizes the worker and kernel slabs for nw workers; newWorker
// then carves its slot out of them.
func (p *pipeline) initWorkers(nw int) {
	p.wbuf = make([]pipeWorker, nw)
	p.kbuf = make([]filterRG, nw*len(p.leaves))
}

// releaseWorkers returns every worker's scratch arena to the pool. Safe
// on the partial slices an errored run leaves behind.
func (p *pipeline) releaseWorkers(workers []*pipeWorker) {
	for _, w := range workers {
		if w != nil && w.sc != nil {
			arena.Put(w.sc)
			w.sc = nil
		}
	}
}

// merge folds the worker partials and per-row-group parts into the final
// result: counts sum, ordered outputs concatenate in row-group order (so
// the result is independent of which worker claimed which morsel), and
// aggregate tables merge.
func (p *pipeline) merge(workers []*pipeWorker) *PipelineResult {
	parts := &p.parts
	res := &p.res
	for _, w := range workers {
		if w == nil {
			continue
		}
		res.Count += w.count
	}
	switch p.term {
	case TermRowIDs:
		res.RowIDs = concat(parts.rowIDs)
	case TermInts:
		res.Ints = concat(parts.ints)
	case TermFloats:
		res.Floats = concat(parts.floats)
	case TermStrings:
		res.Strings = concat(parts.strs)
	case TermSumFloat:
		for _, s := range parts.sums {
			res.Sum += s
		}
	case TermGroupCount:
		total := NewPartialArrayAgg(p.keySpace, p.aggKinds)
		for _, w := range workers {
			if w != nil && w.agg != nil {
				total.Merge(w.agg)
			}
		}
		res.Group = total.Result()
	case TermRel:
		res.Rel = p.mergeRel(workers)
	}
	return res
}

// schedSet is one column's surviving pages for one row group — the unit
// of the prefetch schedule a prepared filter can predict from metadata
// alone (zone maps, page row ranges), mirroring the dispositions its
// kernel will make.
type schedSet struct {
	col   int
	pages []int
}

// schedAllPages schedules every page of one column: the shape of a
// full-scan gather and of filters with no zone-map story.
func schedAllPages(r *colstore.Reader, ci int) func(rg int) []schedSet {
	return func(rg int) []schedSet {
		n := r.Chunk(rg, ci).NumPages()
		pages := make([]int, n)
		for i := range pages {
			pages[i] = i
		}
		return []schedSet{{col: ci, pages: pages}}
	}
}

// prefetchKey carries per-query prefetch overrides through the context.
type prefetchKey struct{}

type prefetchOpt struct {
	off bool
	cfg colstore.FetchConfig
}

// ContextWithoutPrefetch disables async page prefetch for pipelines run
// under the returned context. Prefetch is on by default; the equivalence
// property tests run both arms.
func ContextWithoutPrefetch(ctx context.Context) context.Context {
	return context.WithValue(ctx, prefetchKey{}, prefetchOpt{off: true})
}

// ContextWithPrefetchConfig overrides the prefetcher's budget/slop for
// pipelines run under the returned context (bench and test hook).
func ContextWithPrefetchConfig(ctx context.Context, cfg colstore.FetchConfig) context.Context {
	return context.WithValue(ctx, prefetchKey{}, prefetchOpt{cfg: cfg})
}

// maxWorkersKey carries a per-query parallelism budget through the
// context.
type maxWorkersKey struct{}

// ContextWithMaxWorkers caps the number of pool workers a pipeline run
// under the returned context may occupy (0 or negative means no cap).
// This is the knob a serving layer turns so one query cannot monopolise
// the shared worker pool while others queue.
func ContextWithMaxWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, maxWorkersKey{}, n)
}

// MaxWorkersFrom reports the per-query worker cap carried by ctx, 0 when
// none was set.
func MaxWorkersFrom(ctx context.Context) int {
	n, _ := ctx.Value(maxWorkersKey{}).(int)
	if n < 0 {
		return 0
	}
	return n
}

// buildFetcher computes the query's page schedule and starts the
// background prefetcher, or returns nil when there is nothing to gain:
// prefetch disabled, a provably-empty first stage, or a terminal that reads no
// pages. Only the first planned stage is scheduled — it is the one stage
// guaranteed to run over the unrestricted selection, so its metadata
// disposition exactly predicts its kernel's page fetches; later stages
// see selections that depend on data, which metadata cannot predict
// without risking speculative reads of pages the query never touches.
func (p *pipeline) buildFetcher(ctx context.Context) *colstore.PageFetcher {
	opt, _ := ctx.Value(prefetchKey{}).(prefetchOpt)
	if opt.off {
		return nil
	}
	var sched func(rg int) []schedSet
	switch {
	case len(p.leaves) > 0:
		lf := p.leaves[0]
		if lf.pf.empty || lf.pf.sched == nil {
			return nil
		}
		sched = lf.pf.sched
	case p.ci >= 0:
		sched = schedAllPages(p.r, p.ci)
	default:
		return nil
	}
	f := colstore.NewPageFetcher(p.r, opt.cfg)
	scheduled := false
	for rg := 0; rg < p.r.NumRowGroups(); rg++ {
		for _, s := range sched(rg) {
			if len(s.pages) > 0 {
				f.Schedule(rg, s.col, s.pages)
				scheduled = true
			}
		}
	}
	if !scheduled {
		return nil
	}
	f.Start(ctx)
	return f
}

// runMorsel drives one row group through the whole pipeline on one worker.
func (p *pipeline) runMorsel(ctx context.Context, w *pipeWorker, rg int, parts *pipeParts) error {
	var bm *bitutil.Bitmap
	if p.root != nil {
		var err error
		bm, err = w.evalNode(ctx, rg, p.root, nil)
		if err != nil {
			return err
		}
	} else {
		bm = fullGroupBitmap(p.r.RowGroupRows(rg))
	}
	if p.term == TermRel {
		return p.relTerminal(w, rg, bm, parts)
	}
	return p.terminal(w, rg, bm, parts)
}

// terminal runs the pipeline's sink over one row group's selection: count,
// row-id collection, a selective gather, or partial aggregation into the
// worker's table. An empty selection touches no chunk — no pages, no skip
// marks.
func (p *pipeline) terminal(w *pipeWorker, rg int, bm *bitutil.Bitmap, parts *pipeParts) error {
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	card := 0
	if bm != nil {
		card = bm.Cardinality()
	}
	w.count += int64(card)
	var tap *colstore.IOTap
	if w.taps != nil {
		tap = &w.taps[len(w.taps)-1]
	}
	produced := int64(card)
	var err error
	if card > 0 {
		switch p.term {
		case TermRowIDs:
			base := p.rgStart[rg]
			ids := make([]int64, 0, card)
			bm.ForEach(func(i int) { ids = append(ids, base+int64(i)) })
			parts.rowIDs[rg] = ids
		case TermInts:
			var vals []int64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherInts(bm)
			parts.ints[rg] = vals
			produced = int64(len(vals))
		case TermFloats:
			var vals []float64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherFloats(bm)
			parts.floats[rg] = vals
			produced = int64(len(vals))
		case TermStrings:
			var vals [][]byte
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherStrings(bm)
			parts.strs[rg] = vals
			produced = int64(len(vals))
		case TermGroupCount:
			var keys []int64
			keys, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherKeys(bm)
			if err == nil {
				err = w.agg.Accumulate(keys, p.aggSpecs)
			}
			produced = int64(len(keys))
		case TermSumFloat:
			var vals []float64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherFloats(bm)
			var s float64
			for _, v := range vals {
				s += v
			}
			parts.sums[rg] = s
			produced = int64(len(vals))
		}
	}
	if w.stats != nil {
		st := &w.stats[len(w.stats)-1]
		st.rowsIn += int64(card)
		st.rowsOut += produced
		st.nanos += time.Since(start).Nanoseconds()
	}
	return err
}

// evalNode evaluates one pipeline subtree over one row group, restricted
// to secSel (nil means every row of the group). AND threads the shrinking selection and
// stops when it empties, OR evaluates each branch only over rows no
// earlier branch matched, NOT subtracts the leaf from its selection. When
// a short-circuit strands later filters, their pages are marked
// selection-skipped just as their own sweep would have.
func (w *pipeWorker) evalNode(ctx context.Context, rg int, n *pipeNode, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	switch n.kind {
	case PredLeaf:
		return w.runLeaf(ctx, rg, n.leaf, secSel)
	case PredNot:
		bm, err := w.runLeaf(ctx, rg, n.leaf, secSel)
		if err != nil {
			return nil, err
		}
		base := secSel
		if base == nil {
			base = fullGroupBitmap(w.p.r.RowGroupRows(rg))
		} else {
			base = base.Clone()
		}
		return base.AndNot(bm), nil
	case PredAnd:
		acc := secSel
		for i, kid := range n.kids {
			bm, err := w.evalNode(ctx, rg, kid, acc)
			if err != nil {
				return nil, err
			}
			acc = bm
			if !acc.Any() {
				w.markSkipped(n.kids[i+1:], rg)
				break
			}
		}
		if acc == nil {
			acc = fullGroupBitmap(w.p.r.RowGroupRows(rg))
		}
		return acc, nil
	case PredOr:
		result := bitutil.NewBitmap(w.p.r.RowGroupRows(rg))
		remaining := secSel
		for i, kid := range n.kids {
			bm, err := w.evalNode(ctx, rg, kid, remaining)
			if err != nil {
				return nil, err
			}
			result.Or(bm)
			if remaining == nil {
				remaining = fullGroupBitmap(w.p.r.RowGroupRows(rg))
			} else {
				remaining = remaining.Clone()
			}
			remaining.AndNot(bm)
			if !remaining.Any() {
				w.markSkipped(n.kids[i+1:], rg)
				break
			}
		}
		return result, nil
	}
	return nil, fmt.Errorf("ops: unknown pipeline node kind %d", n.kind)
}

// runLeaf runs one filter kernel over one row group and enforces the
// subset invariant against the pushed selection (the kernel may set rows
// wholesale via zone maps or provably-all rewrites).
func (w *pipeWorker) runLeaf(ctx context.Context, rg int, lf *pipeLeaf, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	var tap *colstore.IOTap
	if w.taps != nil {
		tap = &w.taps[lf.idx]
	}
	rows := w.p.r.RowGroupRows(rg)
	var bm *bitutil.Bitmap
	switch {
	case lf.pf.empty:
		bm = bitutil.NewBitmap(rows)
	case secSel != nil && !secSel.Any():
		lf.pf.skip(rg, tap)
		bm = bitutil.NewBitmap(rows)
	default:
		var err error
		bm, err = w.kernels[lf.idx](ctx, rg, w.sc, secSel, tap)
		if err != nil {
			return nil, err
		}
		if secSel != nil {
			bm.And(secSel)
		}
	}
	if w.stats != nil {
		st := &w.stats[lf.idx]
		if secSel != nil {
			st.rowsIn += int64(secSel.Cardinality())
			st.pushed = true
		} else {
			st.rowsIn += int64(rows)
		}
		st.rowsOut += int64(bm.Cardinality())
		st.nanos += time.Since(start).Nanoseconds()
	}
	return bm, nil
}

// markSkipped records every page of the stranded subtrees' chunks as
// selection-skipped for row group rg — the marks their own sweeps would
// have made on an empty section.
func (w *pipeWorker) markSkipped(nodes []*pipeNode, rg int) {
	for _, n := range nodes {
		if n.leaf != nil && !n.leaf.pf.empty && n.leaf.pf.skip != nil {
			var tap *colstore.IOTap
			if w.taps != nil {
				tap = &w.taps[n.leaf.idx]
			}
			n.leaf.pf.skip(rg, tap)
		}
		w.markSkipped(n.kids, rg)
	}
}

func fullGroupBitmap(rows int) *bitutil.Bitmap {
	bm := bitutil.NewBitmap(rows)
	bm.SetAll()
	return bm
}

// RunPipeline compiles and executes a planned query against one terminal.
// pl nil means no predicate (every row selected). When ctx carries an
// obs.Span, the run is traced as a "Pipeline[...]" child whose stage
// children (Prepare, one per filter, the terminal) account every page the
// reader touched: the stage IO sums to the pipeline span's own delta, the
// invariant ExplainAnalyze verifies against Table.IOStats.
func RunPipeline(ctx context.Context, r *colstore.Reader, pool *exec.Pool, pl *Plan, term TermKind, col string) (*PipelineResult, error) {
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		p, err := buildPipeline(r, pool, pl, term, col, nil, false)
		if err != nil {
			return nil, err
		}
		return p.run(ctx)
	}
	return runPipelineTraced(ctx, sp, r, pool, pl, term, col, nil)
}

// RunRelPipeline compiles and executes a relational plan: the predicate
// plan's filter stages, then rp's join/filter stages and sink, all per row
// group on the morsel pipeline. Traced runs render each join stage and
// the sink as stage spans whose IO keeps the Σ-stages = pipeline-delta
// invariant (joins on dictionary keys book only key-page reads — build
// and probe never touch string pages).
func RunRelPipeline(ctx context.Context, r *colstore.Reader, pool *exec.Pool, pl *Plan, rp *RelPlan) (*Batch, error) {
	sp := obs.SpanFrom(ctx)
	var res *PipelineResult
	var err error
	if sp == nil {
		var p *pipeline
		p, err = buildPipeline(r, pool, pl, TermRel, "", rp, false)
		if err != nil {
			return nil, err
		}
		res, err = p.run(ctx)
	} else {
		res, err = runPipelineTraced(ctx, sp, r, pool, pl, TermRel, "", rp)
	}
	if err != nil {
		return nil, err
	}
	return res.Rel, nil
}

// runPipelineTraced is RunPipeline under a span: per-stage taps and stats
// are merged across workers into one stage child each after the run, with
// summed worker busy time as each stage's duration (wall clock cannot
// express work interleaved across morsels).
func runPipelineTraced(ctx context.Context, sp *obs.Span, r *colstore.Reader, pool *exec.Pool, pl *Plan, term TermKind, col string, rp *RelPlan) (*PipelineResult, error) {
	child := sp.StartChild("Pipeline[" + pipelineLabel(term, col) + "]")
	cctx := obs.ContextWithSpan(ctx, child)
	ioBefore := r.Stats()
	tasksBefore := pool.Completed()
	prepStart := time.Now()
	p, err := buildPipeline(r, pool, pl, term, col, rp, true)
	prepIO := ioDelta(ioBefore, r.Stats())
	prepDur := time.Since(prepStart)
	var res *PipelineResult
	if err == nil {
		res, err = p.run(cctx)
	}
	ioAfter := r.Stats()

	prep := child.StartChild("Prepare")
	prep.AddIO(prepIO)
	prep.End()
	prep.SetDuration(prepDur)
	if p != nil {
		for _, lf := range p.leaves {
			fs := child.StartChild("Filter[" + lf.name + "]")
			for _, d := range DescribeFilter(lf.f, r) {
				fs.AddDetail("%s", d)
			}
			st := p.mergedStats(lf.idx)
			if st.pushed {
				fs.AddDetail("selection-pushed: %d of %d rows remain", st.rowsIn, r.NumRows())
			}
			if st.rowsIn > 0 {
				fs.AddDetail("selectivity est=%.4f actual=%.4f", lf.est, float64(st.rowsOut)/float64(st.rowsIn))
			}
			fs.SetRows(st.rowsIn, st.rowsOut)
			tap := p.mergedIOTap(lf.idx)
			addStageTimeDetails(fs, &tap, st.nanos)
			fs.AddIO(spanIOFromTap(&tap))
			fs.End()
			fs.SetDuration(time.Duration(st.nanos))
		}
		if p.rel != nil {
			for si := range p.rel.Stages {
				stg := &p.rel.Stages[si]
				js := child.StartChild(relStageSpanName(stg))
				if stg.Kind != RelRowFilter {
					js.AddDetail("build rows=%d", stg.Table.Len())
					for _, k := range stg.Keys {
						if k.Kind == RelKey {
							js.AddDetail("probe key %s: dictionary codes", k.Col)
						} else {
							js.AddDetail("probe key %s: int values", k.Col)
						}
					}
				}
				st := p.mergedStats(len(p.leaves) + si)
				js.SetRows(st.rowsIn, st.rowsOut)
				tap := p.mergedIOTap(len(p.leaves) + si)
				addStageTimeDetails(js, &tap, st.nanos)
				js.AddIO(spanIOFromTap(&tap))
				js.End()
				js.SetDuration(time.Duration(st.nanos))
			}
		}
		termIdx := len(p.leaves) + p.relStageCount()
		name := terminalSpanName(term, col)
		if p.rel != nil {
			name = relSinkSpanName(p.rel)
		}
		ts := child.StartChild(name)
		st := p.mergedStats(termIdx)
		rowsOut := st.rowsOut
		if term == TermRel && res != nil && res.Rel != nil {
			// Worker partials over-count sink output (each worker's top-K
			// buffer and group cells merge later); report the merged size.
			rowsOut = int64(res.Rel.N)
		}
		ts.SetRows(st.rowsIn, rowsOut)
		tap := p.mergedIOTap(termIdx)
		addStageTimeDetails(ts, &tap, st.nanos)
		ts.AddIO(spanIOFromTap(&tap))
		ts.End()
		ts.SetDuration(time.Duration(st.nanos))
	}
	if err != nil {
		child.AddDetail("error=%v", err)
	}
	if res != nil {
		child.SetRows(r.NumRows(), res.Count)
	}
	workers := pool.Size()
	if n := r.NumRowGroups(); n < workers {
		workers = n
	}
	child.AddDetail("morsels=%d workers<=%d", r.NumRowGroups(), workers)
	child.AddIO(ioDelta(ioBefore, ioAfter))
	child.AddTasks(pool.Completed() - tasksBefore)
	child.End()
	if lq := obs.QueryFrom(ctx); lq != nil && p != nil {
		// Traced runs carry per-stage IO taps; total their wait and
		// decompress time into the live entry so the finished record can
		// split wall time into wait/decompress/scan.
		var wait, dec int64
		for i := 0; i <= len(p.leaves)+p.relStageCount(); i++ {
			tap := p.mergedIOTap(i)
			wait += tap.WaitNanos
			dec += tap.DecompressNanos
		}
		lq.AddIOTimes(wait, dec)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mergedIOTap sums one stage's IO across workers, keeping the prefetch
// and timing fields that SpanIO does not carry.
func (p *pipeline) mergedIOTap(idx int) colstore.IOTap {
	var t colstore.IOTap
	for _, w := range p.workers {
		if w != nil && w.taps != nil {
			t.Add(&w.taps[idx])
		}
	}
	return t
}

func spanIOFromTap(t *colstore.IOTap) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         t.PagesRead,
		PagesPruned:       t.PagesPruned,
		PagesSkipped:      t.PagesSkipped,
		BytesRead:         t.BytesRead,
		BytesDecompressed: t.BytesDecompressed,
	}
}

// addStageTimeDetails attributes a stage's busy time to waiting on
// prefetched reads, decompression, and the remainder (the scan/decode
// kernel itself), and reports prefetch effectiveness when a fetcher ran.
func addStageTimeDetails(s *obs.Span, t *colstore.IOTap, busyNanos int64) {
	if t.PrefetchHits > 0 || t.PrefetchMisses > 0 || t.WaitNanos > 0 {
		s.AddDetail("prefetch: %d hit / %d miss, io-wait %v",
			t.PrefetchHits, t.PrefetchMisses, time.Duration(t.WaitNanos))
	}
	if t.WaitNanos > 0 || t.DecompressNanos > 0 {
		scan := busyNanos - t.WaitNanos - t.DecompressNanos
		if scan < 0 {
			scan = 0
		}
		s.AddDetail("time: wait=%v decompress=%v scan=%v",
			time.Duration(t.WaitNanos), time.Duration(t.DecompressNanos), time.Duration(scan))
	}
}

// mergedStats sums one stage's row flow and busy time across workers.
func (p *pipeline) mergedStats(idx int) stageStats {
	var st stageStats
	for _, w := range p.workers {
		if w != nil && w.stats != nil {
			st.rowsIn += w.stats[idx].rowsIn
			st.rowsOut += w.stats[idx].rowsOut
			st.nanos += w.stats[idx].nanos
			st.pushed = st.pushed || w.stats[idx].pushed
		}
	}
	return st
}

// pipelineLabel names the pipeline span after its terminal.
func pipelineLabel(term TermKind, col string) string {
	switch term {
	case TermCount:
		return "count"
	case TermRowIDs:
		return "rowids"
	case TermInts, TermFloats, TermStrings:
		return "gather " + col
	case TermGroupCount:
		return "group " + col
	case TermSumFloat:
		return "sum " + col
	case TermRel:
		return "relational"
	}
	return "?"
}

// terminalSpanName names the terminal stage span.
func terminalSpanName(term TermKind, col string) string {
	switch term {
	case TermCount:
		return "Count"
	case TermRowIDs:
		return "Collect[rowids]"
	case TermInts, TermFloats, TermStrings:
		return "Gather[" + col + "]"
	case TermGroupCount:
		return "Aggregate[count by " + col + "]"
	case TermSumFloat:
		return "Sum[" + col + "]"
	case TermRel:
		return "Sink"
	}
	return "?"
}

// relStageSpanName names one relational stage's span.
func relStageSpanName(st *RelStage) string {
	if st.Kind == RelRowFilter {
		return "RowFilter[" + st.Name + "]"
	}
	return "Join[" + st.Name + " " + st.Kind.String() + "]"
}

// relSinkSpanName names the relational sink's span after what it does.
func relSinkSpanName(rp *RelPlan) string {
	if g := rp.Sink.Group; g != nil {
		return fmt.Sprintf("GroupBy[%d keys, %d aggs]", len(g.Keys), len(g.Aggs))
	}
	c := rp.Sink.Collect
	switch {
	case c.K > 0:
		return fmt.Sprintf("Sort[top %d]", c.K)
	case len(c.Sort) > 0:
		return "Sort[all]"
	}
	return "Collect[rows]"
}
