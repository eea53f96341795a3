package main

import (
	"fmt"
	"time"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/sboost"
	"codecdb/internal/tpch"
)

// kernelReps is how often the bottom-up kernels sweep the pages; each
// metric is the median sweep.
const kernelReps = 5

// pageKernels times the three bottom-up kernels over every page of the
// lineitem columns the TPC-H queries read (all but l_comment):
//   - colstore: Chunk.PageBody, which reads, verifies and decompresses a page;
//   - encoding: decoding those bodies with the column's codec, for the
//     columns whose values are decoded (delta, bit-packed, plain floats);
//   - sboost: ScanPackedInto and ScanPackedRangeInto on the packed bodies
//     of the columns scanned in situ (bit-packed and dictionary keys).
func pageKernels(ts *tpch.Tables, rep *report) error {
	r := ts.L
	var (
		decoded []func() (int, error)
		packed  []colstore.PackedPage
	)
	for col, c := range r.Schema().Columns {
		if c.Name == "l_comment" {
			continue
		}
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			ch := r.Chunk(rg, col)
			for p := 0; p < ch.NumPages(); p++ {
				body, err := ch.PageBody(p)
				if err != nil {
					return fmt.Errorf("kernels: %s page %d: %w", c.Name, p, err)
				}
				if dec := decoderFor(c, body); dec != nil {
					decoded = append(decoded, dec)
				}
				if ch.PackedScannable() {
					pp, err := ch.PackedPageAt(p, nil)
					if err != nil {
						return fmt.Errorf("kernels: %s page %d: %w", c.Name, p, err)
					}
					packed = append(packed, pp)
				}
			}
		}
	}

	var bodyNS, decodeNS, scanNS []float64
	for i := 0; i < kernelReps; i++ {
		var values int
		start := time.Now()
		for col, c := range r.Schema().Columns {
			if c.Name == "l_comment" {
				continue
			}
			for rg := 0; rg < r.NumRowGroups(); rg++ {
				ch := r.Chunk(rg, col)
				for p := 0; p < ch.NumPages(); p++ {
					if _, err := ch.PageBody(p); err != nil {
						return err
					}
					values += ch.PageValues(p)
				}
			}
		}
		bodyNS = append(bodyNS, float64(time.Since(start).Nanoseconds())/float64(values))

		values = 0
		start = time.Now()
		for _, dec := range decoded {
			n, err := dec()
			if err != nil {
				return fmt.Errorf("kernels: decode: %w", err)
			}
			values += n
		}
		decodeNS = append(decodeNS, float64(time.Since(start).Nanoseconds())/float64(values))

		var scanned int
		var spent time.Duration
		for _, pp := range packed {
			out := bitutil.NewBitmap(pp.N)
			target := uint64(1) << (pp.Width - 1)
			t0 := time.Now()
			sboost.ScanPackedInto(out, pp.Data, pp.Width, sboost.OpLt, target)
			spent += time.Since(t0)
			out.Reset()
			t0 = time.Now()
			sboost.ScanPackedRangeInto(out, pp.Data, pp.Width, target/2, target+target/2)
			spent += time.Since(t0)
			scanned += 2 * pp.N
		}
		scanNS = append(scanNS, float64(spent.Nanoseconds())/float64(scanned))
	}
	rep.m["colstore.page_body_ns_per_value"] = median(bodyNS)
	rep.m["encoding.decode_ns_per_value"] = median(decodeNS)
	rep.m["sboost.scan_ns_per_value"] = median(scanNS)
	return nil
}

// decoderFor returns a call that decodes body with c's codec and reports
// the values decoded, or nil for pages the engine scans in situ
// (dictionary keys) or never decodes here (plain strings).
func decoderFor(c colstore.Column, body []byte) func() (int, error) {
	switch {
	case c.Type == colstore.TypeFloat64 && c.Encoding == encoding.KindXorFloat:
		return func() (int, error) {
			v, err := encoding.XorFloat{}.Decode(body)
			return len(v), err
		}
	case c.Type == colstore.TypeFloat64:
		return func() (int, error) { // plain floats are stored as their bits
			v, err := encoding.PlainInt{}.Decode(body)
			return len(v), err
		}
	case c.Type == colstore.TypeInt64 && c.Encoding != encoding.KindDict && c.Encoding != encoding.KindDictRLE:
		codec, err := encoding.IntCodecFor(c.Encoding)
		if err != nil {
			return nil
		}
		return func() (int, error) {
			v, err := codec.Decode(body)
			return len(v), err
		}
	}
	return nil
}
