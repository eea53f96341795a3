package codecdb

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"codecdb/internal/colstore"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/shard"
)

// This file executes queries over ingest (sharded) tables. A terminal
// takes one consistent snapshot — the live shards in ingest order plus
// the in-memory tail (sealed memtables and a frozen view of the active
// buffer) — then runs the normal planned pipeline over each shard with
// predicates re-bound to that shard's own encodings, evaluates the tail
// row-wise, and merges. Row IDs are global over the snapshot order, so
// results read as one table.

// validateShardedPred type-checks p against an ingest table's schema.
// Encoding-dependent validation (dictionaries) is deliberately absent:
// encodings vary per shard, and binding handles each shard's reality.
func validateShardedPred(cols []shard.Column, p Pred) error {
	colOf := func(name string) (shard.Column, error) {
		for _, c := range cols {
			if c.Name == name {
				return c, nil
			}
		}
		return shard.Column{}, fmt.Errorf("codecdb: no column %q", name)
	}
	switch p.kind {
	case predZero:
		return nil
	case predRaw:
		return fmt.Errorf("codecdb: raw filters bind to a single reader and cannot run on ingest tables")
	case predCmp:
		c, err := colOf(p.col)
		if err != nil {
			return err
		}
		switch p.value.(type) {
		case int, int64:
			if c.Type != memtable.ColInt64 {
				return fmt.Errorf("codecdb: integer predicate on column %q", p.col)
			}
		case float64:
			if c.Type != memtable.ColFloat64 {
				return fmt.Errorf("codecdb: float predicate on column %q", p.col)
			}
		case string, []byte:
			if c.Type != memtable.ColBinary {
				return fmt.Errorf("codecdb: string predicate on column %q", p.col)
			}
		default:
			return fmt.Errorf("codecdb: unsupported predicate value %T", p.value)
		}
		return nil
	case predIn:
		c, err := colOf(p.col)
		if err != nil {
			return err
		}
		if len(p.values) == 0 {
			return fmt.Errorf("codecdb: IN on %s needs at least one value", p.col)
		}
		for _, v := range p.values {
			switch v.(type) {
			case int, int64:
				if c.Type != memtable.ColInt64 {
					return fmt.Errorf("codecdb: integer IN values for column %s", p.col)
				}
			case string, []byte:
				if c.Type != memtable.ColBinary {
					return fmt.Errorf("codecdb: string IN values for column %s", p.col)
				}
			default:
				return fmt.Errorf("codecdb: unsupported IN value %T for column %s", v, p.col)
			}
		}
		return nil
	case predLike:
		c, err := colOf(p.col)
		if err != nil {
			return err
		}
		if c.Type != memtable.ColBinary {
			return fmt.Errorf("codecdb: LIKE needs a string column; %s is not", p.col)
		}
		if p.match == nil {
			return fmt.Errorf("codecdb: LIKE on %s needs a non-nil match function", p.col)
		}
		return nil
	case predCols:
		// Two-column dictionary comparison needs one shared
		// order-preserving dictionary; shards are encoded independently,
		// so no such dictionary can exist across them.
		return fmt.Errorf("codecdb: two-column predicates are not supported on ingest tables")
	case predAll:
		for _, k := range p.kids {
			if err := validateShardedPred(cols, k); err != nil {
				return err
			}
		}
		return nil
	case predAny:
		if len(p.kids) == 0 {
			return fmt.Errorf("codecdb: AnyOf needs at least one predicate")
		}
		for _, k := range p.kids {
			if err := validateShardedPred(cols, k); err != nil {
				return err
			}
		}
		return nil
	case predNot:
		inner := p.kids[0]
		switch inner.kind {
		case predCmp, predIn, predLike:
			return validateShardedPred(cols, inner)
		}
		return fmt.Errorf("codecdb: Not supports only leaf predicates (Col/In/Like); rewrite composites with De Morgan's laws")
	}
	return fmt.Errorf("codecdb: invalid predicate")
}

// runSharded is the sharded counterpart of Query.run: same terminals,
// same metrics, results merged across the snapshot.
func (q *Query) runSharded(term ops.TermKind, col string) (res *ops.PipelineResult, err error) {
	ctx, cancel := q.execContext()
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, fin := q.record(ctx, term.String())
	defer func() {
		queriesTotal.Inc()
		queryLatency.Observe(time.Since(start).Seconds())
		var out int64
		if res != nil {
			out = res.Count
		}
		fin(out, err)
	}()
	view := q.t.inner.S.Snapshot()
	root := AllOf(q.conjuncts...)
	out := &ops.PipelineResult{}
	base := int64(0)
	for _, sv := range view.Shards {
		var pl *ops.Plan
		if len(q.conjuncts) > 0 {
			bp, err := bindPredOn(sv.Reader, root, true)
			if err != nil {
				return nil, err
			}
			pl = ops.BuildPlan(bp, sv.Reader)
		}
		res, err := ops.RunPipeline(ctx, sv.Reader, q.t.db.inner.DataPool(), pl, term, col)
		if err != nil {
			return nil, err
		}
		mergeShardResult(out, res, base)
		base += sv.Rows
	}
	for _, mem := range view.Tail {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := q.evalTail(mem, root, term, col, base, out); err != nil {
			return nil, err
		}
		base += int64(mem.NumRows())
	}
	return out, nil
}

func mergeShardResult(out, res *ops.PipelineResult, base int64) {
	out.Count += res.Count
	for _, id := range res.RowIDs {
		out.RowIDs = append(out.RowIDs, id+base)
	}
	out.Ints = append(out.Ints, res.Ints...)
	out.Floats = append(out.Floats, res.Floats...)
	out.Strings = append(out.Strings, res.Strings...)
	out.Sum += res.Sum
}

// evalTail runs one terminal over a memtable: compile the predicate to
// a row closure, walk the rows, fold matches into out.
func (q *Query) evalTail(mem *memtable.ColumnTable, root Pred, term ops.TermKind, col string, base int64, out *ops.PipelineResult) error {
	match, err := compileTailPred(mem, root)
	if err != nil {
		return err
	}
	var ints []int64
	var flts []float64
	var bins []memtable.Binary
	if col != "" {
		ci := mem.ColIndex(col)
		if ci < 0 {
			return fmt.Errorf("codecdb: no column %q", col)
		}
		switch term {
		case ops.TermInts:
			if mem.Types()[ci] != memtable.ColInt64 {
				return fmt.Errorf("codecdb: %s is not an integer column", col)
			}
			ints = mem.Ints(ci)
		case ops.TermFloats, ops.TermSumFloat:
			if mem.Types()[ci] != memtable.ColFloat64 {
				return fmt.Errorf("codecdb: %s is not a float column", col)
			}
			flts = mem.Floats(ci)
		case ops.TermStrings:
			if mem.Types()[ci] != memtable.ColBinary {
				return fmt.Errorf("codecdb: %s is not a string column", col)
			}
			bins = mem.Binaries(ci)
		}
	}
	for row := 0; row < mem.NumRows(); row++ {
		if !match(row) {
			continue
		}
		switch term {
		case ops.TermCount:
			out.Count++
		case ops.TermRowIDs:
			out.RowIDs = append(out.RowIDs, base+int64(row))
		case ops.TermInts:
			out.Ints = append(out.Ints, ints[row])
		case ops.TermFloats:
			out.Floats = append(out.Floats, flts[row])
		case ops.TermStrings:
			out.Strings = append(out.Strings, bins[row])
		case ops.TermSumFloat:
			out.Sum += flts[row]
		default:
			return fmt.Errorf("codecdb: terminal %d not supported on the ingest tail", term)
		}
	}
	return nil
}

// compileTailPred lowers a predicate tree to one row closure over a
// memtable's column vectors. Validation already ran at build time;
// lookups here defend against schema drift only.
func compileTailPred(mem *memtable.ColumnTable, p Pred) (func(int) bool, error) {
	switch p.kind {
	case predZero:
		return func(int) bool { return true }, nil
	case predCmp:
		ci := mem.ColIndex(p.col)
		if ci < 0 {
			return nil, fmt.Errorf("codecdb: no column %q", p.col)
		}
		op := p.op
		switch mem.Types()[ci] {
		case memtable.ColInt64:
			var target int64
			switch v := p.value.(type) {
			case int:
				target = int64(v)
			case int64:
				target = v
			default:
				return nil, fmt.Errorf("codecdb: integer predicate on %q needs an integer value", p.col)
			}
			vals := mem.Ints(ci)
			return func(row int) bool { return cmpMatch(compareInt(vals[row], target), op) }, nil
		case memtable.ColFloat64:
			target, ok := p.value.(float64)
			if !ok {
				return nil, fmt.Errorf("codecdb: float predicate on %q needs a float value", p.col)
			}
			pred := floatPred(op, target)
			vals := mem.Floats(ci)
			return func(row int) bool { return pred(vals[row]) }, nil
		default:
			var target []byte
			switch v := p.value.(type) {
			case string:
				target = []byte(v)
			case []byte:
				target = v
			default:
				return nil, fmt.Errorf("codecdb: string predicate on %q needs a string value", p.col)
			}
			vals := mem.Binaries(ci)
			return func(row int) bool { return cmpMatch(bytes.Compare(vals[row], target), op) }, nil
		}
	case predIn:
		ci := mem.ColIndex(p.col)
		if ci < 0 {
			return nil, fmt.Errorf("codecdb: no column %q", p.col)
		}
		if mem.Types()[ci] == memtable.ColInt64 {
			set := make(map[int64]struct{}, len(p.values))
			for _, v := range p.values {
				switch x := v.(type) {
				case int:
					set[int64(x)] = struct{}{}
				case int64:
					set[x] = struct{}{}
				default:
					return nil, fmt.Errorf("codecdb: unsupported IN value %T for column %s", v, p.col)
				}
			}
			vals := mem.Ints(ci)
			return func(row int) bool { _, ok := set[vals[row]]; return ok }, nil
		}
		set := make(map[string]struct{}, len(p.values))
		for _, v := range p.values {
			switch x := v.(type) {
			case string:
				set[x] = struct{}{}
			case []byte:
				set[string(x)] = struct{}{}
			default:
				return nil, fmt.Errorf("codecdb: unsupported IN value %T for column %s", v, p.col)
			}
		}
		vals := mem.Binaries(ci)
		return func(row int) bool { _, ok := set[string(vals[row])]; return ok }, nil
	case predLike:
		ci := mem.ColIndex(p.col)
		if ci < 0 {
			return nil, fmt.Errorf("codecdb: no column %q", p.col)
		}
		vals := mem.Binaries(ci)
		match := p.match
		return func(row int) bool { return match(vals[row]) }, nil
	case predAll:
		kids, err := compileTailKids(mem, p.kids)
		if err != nil {
			return nil, err
		}
		return func(row int) bool {
			for _, k := range kids {
				if !k(row) {
					return false
				}
			}
			return true
		}, nil
	case predAny:
		kids, err := compileTailKids(mem, p.kids)
		if err != nil {
			return nil, err
		}
		return func(row int) bool {
			for _, k := range kids {
				if k(row) {
					return true
				}
			}
			return false
		}, nil
	case predNot:
		inner, err := compileTailPred(mem, p.kids[0])
		if err != nil {
			return nil, err
		}
		return func(row int) bool { return !inner(row) }, nil
	}
	return nil, fmt.Errorf("codecdb: predicate not supported on the ingest tail")
}

func compileTailKids(mem *memtable.ColumnTable, preds []Pred) ([]func(int) bool, error) {
	kids := make([]func(int) bool, len(preds))
	for i, k := range preds {
		fn, err := compileTailPred(mem, k)
		if err != nil {
			return nil, err
		}
		kids[i] = fn
	}
	return kids, nil
}

// groupCountSharded merges per-shard GroupCounts with a row-wise count
// over the tail. Shards whose column the selector dictionary-encoded
// use the array-aggregation fast path; others fall back to gathering
// the selected values. Labels render identically on both paths, so the
// maps merge cleanly.
func (q *Query) groupCountSharded(col string) (counts map[string]int64, err error) {
	ctx := q.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var isInt bool
	found := false
	for _, c := range q.t.inner.S.Cols() {
		if c.Name == col {
			found = true
			switch c.Type {
			case memtable.ColInt64:
				isInt = true
			case memtable.ColBinary:
				isInt = false
			default:
				return nil, fmt.Errorf("codecdb: GroupCount needs an integer or string column, %s is float", col)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("codecdb: no column %q", col)
	}
	start := time.Now()
	ctx, fin := q.record(ctx, ops.TermGroupCount.String())
	defer func() {
		queriesTotal.Inc()
		queryLatency.Observe(time.Since(start).Seconds())
		var out int64
		for _, n := range counts {
			out += n
		}
		fin(out, err)
	}()
	view := q.t.inner.S.Snapshot()
	root := AllOf(q.conjuncts...)
	counts = map[string]int64{}
	for _, sv := range view.Shards {
		if err := q.groupCountShard(ctx, sv.Reader, root, col, isInt, counts); err != nil {
			return nil, err
		}
	}
	for _, mem := range view.Tail {
		match, err := compileTailPred(mem, root)
		if err != nil {
			return nil, err
		}
		ci := mem.ColIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("codecdb: no column %q", col)
		}
		if isInt {
			vals := mem.Ints(ci)
			for row := range vals {
				if match(row) {
					counts[strconv.FormatInt(vals[row], 10)]++
				}
			}
		} else {
			vals := mem.Binaries(ci)
			for row := range vals {
				if match(row) {
					counts[string(vals[row])]++
				}
			}
		}
	}
	return counts, nil
}

func (q *Query) groupCountShard(ctx context.Context, r *colstore.Reader, root Pred, col string, isInt bool, counts map[string]int64) error {
	var pl *ops.Plan
	if len(q.conjuncts) > 0 {
		bp, err := bindPredOn(r, root, true)
		if err != nil {
			return err
		}
		pl = ops.BuildPlan(bp, r)
	}
	pool := q.t.db.inner.DataPool()
	_, c, err := r.Column(col)
	if err != nil {
		return err
	}
	if c.Encoding == Dictionary || c.Encoding == DictRLE {
		res, err := ops.RunPipeline(ctx, r, pool, pl, ops.TermGroupCount, col)
		if err != nil {
			return err
		}
		_, _, labels, err := groupLabelsOn(r, col)
		if err != nil {
			return err
		}
		for g, k := range res.Group.Keys {
			counts[labels[k]] += res.Group.Counts[g]
		}
		return nil
	}
	if isInt {
		res, err := ops.RunPipeline(ctx, r, pool, pl, ops.TermInts, col)
		if err != nil {
			return err
		}
		for _, v := range res.Ints {
			counts[strconv.FormatInt(v, 10)]++
		}
		return nil
	}
	res, err := ops.RunPipeline(ctx, r, pool, pl, ops.TermStrings, col)
	if err != nil {
		return err
	}
	for _, v := range res.Strings {
		counts[string(v)]++
	}
	return nil
}
