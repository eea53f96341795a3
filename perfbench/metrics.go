package main

import "fmt"

// spec names one reported metric, as BENCHMARK.json lists it.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees; every workload reports all
// of them.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"storage_ratio", "ratio", "lower"},
}

// layerSpecs are the per-layer metrics after the 66 per-query tpch ones.
var layerSpecs = []spec{
	{"colstore.pages_read", "count", "lower"},
	{"colstore.pages_pruned", "count", "higher"},
	{"colstore.pages_skipped", "count", "higher"},
	{"colstore.pages_coalesced", "count", "higher"},
	{"colstore.bytes_read", "B", "lower"},
	{"colstore.bytes_decompressed", "B", "lower"},
	{"colstore.io_ms", "ms", "lower"},
	{"colstore.prefetch_hit_ratio", "ratio", "higher"},
	{"colstore.pagecache_hit_ratio", "ratio", "higher"},
	{"xcompress.decompressions", "count", "lower"},
	{"xcompress.decompressed_bytes", "B", "lower"},
	{"exec.tasks", "count", "lower"},
	{"colstore.page_body_ns_per_value", "ns", "lower"},
	{"encoding.decode_ns_per_value", "ns", "lower"},
	{"sboost.scan_ns_per_value", "ns", "lower"},
	{"ops.plan_ms", "ms", "lower"},
	{"ops.filter_ms", "ms", "lower"},
	{"ops.terminal_ms", "ms", "lower"},
	{"ops.wait_ms", "ms", "lower"},
	{"ops.decompress_ms", "ms", "lower"},
	{"ops.scan_ms", "ms", "lower"},
	{"ops.build_ms", "ms", "lower"},
	{"ops.probe_ms", "ms", "lower"},
	{"ops.sort_ms", "ms", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.query_ms", "ms", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.http_self_ms", "ms", "lower"},
	{"serve.admission_wait_ms", "ms", "lower"},
	{"serve.result_cache_hit_ratio", "ratio", "higher"},
	{"serve.members_per_wave", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.appends_per_fsync", "ratio", "higher"},
	{"wal.fsync_p50_ms", "ms", "lower"},
	{"shard.flushes", "count", "lower"},
	{"shard.flush_ms", "ms", "lower"},
	{"shard.recovery_s", "s", "lower"},
	{"selector.select_us_per_column", "us", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "higher"},
	{"tpch.parts_residual_ratio", "ratio", "lower"},
	{"serve.parts_residual_ratio", "ratio", "lower"},
}

// perLayer lists every per-layer metric: wall time, pages read and heap
// allocations of each TPC-H query, then layerSpecs.
func perLayer() []spec {
	var out []spec
	for q := 1; q <= 22; q++ {
		out = append(out,
			spec{qName(q, "ms"), "ms", "lower"},
			spec{qName(q, "pages_read"), "count", "lower"},
			spec{qName(q, "allocs"), "count", "lower"})
	}
	return append(out, layerSpecs...)
}

func qName(q int, what string) string { return fmt.Sprintf("tpch.Q%02d_%s", q, what) }
