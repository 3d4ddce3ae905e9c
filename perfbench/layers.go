package main

// layerMetrics lists every per-layer metric in report order with its
// unit. Every workload's traced run prints all of them, so the names
// are the same on every workload; a layer the workload's path never
// reaches reads 0 (README.md names the workloads that measure each).
var layerMetrics = []struct{ name, unit string }{
	{"jobs.resolve_ms", "ms"},
	{"traj.digest_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.submit_ms.cold", "ms"},
	{"jobs.submit_ms.delta", "ms"},
	{"jobs.submit_ms.hit", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.exec_ms", "ms"},
	{"jobs.result_ms", "ms"},
	{"jobs.result_bytes", "bytes"},
	{"jobs.whole_hit_frac", "1"},
	{"jobs.hit_p50_ms", "ms"},
	{"jobs.cold_p50_ms", "ms"},
	{"jobs.delta_p50_ms", "ms"},
	{"jobs.leaflet_p50_ms", "ms"},
	{"jobs.unattributed_ms", "ms"},
	{"wal.appends_per_job", "count"},
	{"wal.fsyncs_per_job", "count"},
	{"blockstore.hit_ratio", "1"},
	{"blockstore.bytes_saved_per_job", "bytes"},
	{"engine.tasks_per_job", "count"},
	{"engine.task_max_ms", "ms"},
	{"engine.task_mean_ms", "ms"},
	{"engine.efficiency", "1"},
	{"engine.alloc_mb_per_job", "MB"},
	{"engine.gc_cpu_frac", "1"},
	{"engine.bytes_shuffled_per_job", "bytes"},
	{"psa.blocks", "count"},
	{"psa.block_ms", "ms"},
	{"hausdorff.pairs_evaluated", "count"},
	{"hausdorff.pairs_pruned", "count"},
	{"hausdorff.pairs_abandoned", "count"},
	{"hausdorff.nodes_visited", "count"},
	{"hausdorff.eval_frac", "1"},
	{"hausdorff.ns_per_pair", "ns"},
	{"linalg.drms_ns", "ns"},
	{"linalg.atom_terms", "count"},
	{"leaflet.tiles", "count"},
	{"leaflet.edges", "count"},
	{"leaflet.tile_ms", "ms"},
	{"leaflet.serial_ms", "ms"},
	{"graph.merge_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"span.job_self_ms", "ms"},
	{"span.queue.wait_self_ms", "ms"},
	{"span.run_self_ms", "ms"},
	{"span.engine.dask_self_ms", "ms"},
	{"span.psa.block_self_ms", "ms"},
	{"span.leaflet.tile_self_ms", "ms"},
	{"span.cache.do_self_ms", "ms"},
}

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

// emit appends every per-layer metric to rep, in list order.
func (l layers) emit(rep *report) {
	for _, m := range layerMetrics {
		rep.add(m.name, m.unit, l[m.name])
	}
}
