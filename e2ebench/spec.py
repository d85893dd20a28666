"""Metric names and units, as listed in ``BENCHMARK.json``.

Every workload reports every end-to-end metric; what the shared names
mean on each workload is in ``e2ebench/workloads.json`` and in the
per-workload aliases printed beside them (:data:`ALIASES`).
"""

END_TO_END = {
    "setup_s": "s",
    "materialise_s": "s",
    "first_answer_s": "s",
    "store_bytes_per_pair": "B/pair",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

#: Fixed per workload so the tail is the same percentile on every run:
#: the highest with at least ten samples beyond it at the sample counts
#: a run collects (about 2200, 360, 36 and 450).
TAIL_QUANTILE = {"materialise": 0.99, "lookup": 0.95, "ingest": 0.7, "fanout": 0.95}

#: The per-workload names of the shared metrics, printed beside them.
ALIASES = {
    "materialise": {
        "materialise_s": "materialise_s",
        "first_answer_s": "first_answer_s",
        "store_bytes_per_pair": "store_bytes_per_pair",
        "peak_rss_mb": "materialise_peak_rss_mb",
        "ops_per_s": "cold_lookup_qps",
        "p50_ms": "cold_lookup_p50_ms",
        "tail_ms": "cold_lookup_tail_ms",
    },
    "lookup": {"ops_per_s": "lookup_qps", "p50_ms": "lookup_p50_ms", "tail_ms": "lookup_tail_ms"},
    "ingest": {
        "ops_per_s": "ingest_obs_per_s",
        "p50_ms": "reader_p50_ms",
        "tail_ms": "reader_tail_ms",
    },
    "fanout": {"ops_per_s": "fanout_qps", "p50_ms": "fanout_p50_ms", "tail_ms": "fanout_tail_ms"},
}

PER_LAYER = {
    # materialise -> materialise_s
    "rdf.parse_s": "s",
    "qb.load_s": "s",
    "core.cubemask.compute_s": "s",
    "core.cubemask.cube_pairs": "count",
    "core.cubemask.pruned_ratio": "ratio",
    "core.kernels.kernel_s": "s",
    "core.kernels.pairs": "count",
    "core.results.materialise_s": "s",
    "storage.write_s": "s",
    # materialise -> store_bytes_per_pair
    "storage.bytes_written": "B",
    "storage.segments": "count",
    # materialise -> first_answer_s
    "cli.serve_listening_s": "s",
    "storage.open_s": "s",
    "service.first_query_s": "s",
    "storage.lazy_materialisations": "count",
    "storage.segment_loads": "count",
    # lookup -> p50_ms, ops_per_s
    "service.engine.containers_us": "us",
    "service.engine.contained_us": "us",
    "service.engine.complements_us": "us",
    "service.engine.related_us": "us",
    "service.cache.hit_ratio": "ratio",
    "service.server.request_p50_ms": "ms",
    "service.http.wait_ms": "ms",
    # ingest -> ops_per_s (per batch)
    "core.api.update_s": "s",
    "core.api.delta_pairs": "count",
    "storage.wal.append_s": "s",
    "storage.wal.bytes": "B",
    "stream.changefeed.publish_s": "s",
    "stream.changefeed.bytes": "B",
    "service.index.apply_s": "s",
    "stream.ingest.http_overhead_ms": "ms",
    # ingest -> p50_ms, tail_ms (the reader)
    "service.rwlock.wait_ms": "ms",
    # every workload
    "obs.tracing_overhead_pct": "%",
    "reconcile.materialise.unattributed_pct": "%",
    "reconcile.lookup.unattributed_pct": "%",
    "reconcile.ingest.unattributed_pct": "%",
}

#: Reported only by the traced pass of ``--workload fanout``, which runs
#: but is not listed in ``BENCHMARK.json`` (see ``workloads.json``).
FANOUT_PER_LAYER = {
    # fanout -> p50_ms, ops_per_s
    "cluster.router.scatter_width": "count",
    "cluster.shard.request_p50_ms": "ms",
    "cluster.router.self_ms": "ms",
    "cluster.http.wait_ms": "ms",
    "reconcile.fanout.unattributed_pct": "%",
}

#: Unattributed share above which a workload's layers are flagged.
RECONCILE_LIMIT_PCT = 10.0
