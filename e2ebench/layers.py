"""The traced pass: per-layer metrics for every workload.

The program runs with its telemetry on (``compute --trace``, ``serve``
and ``cluster`` with ``--span-dir`` and the sampling profiler).  Each
workload's live scenario runs once; the benchmark then replays its work
in-process, timing calls into each layer's public functions from spans
recorded here, and reads the program's own exported telemetry
(``/metrics`` scrapes and the ``repro_*`` registry).  Nothing inside
``src/`` is instrumented for the benchmark.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from contextlib import contextmanager
from urllib.parse import unquote

import spec
import workloads
from client import histogram_quantile, sample_total, scrape
from workloads import Measured

from repro.obs.exposition import parse_exposition
from repro.obs.registry import get_registry
from repro.rdf.terms import URIRef

QUERY_ENDPOINTS = {"containers", "contained", "complements", "related"}


class Spans:
    """In-memory spans around the benchmark's calls into each layer."""

    def __init__(self):
        self.records: list[tuple[str, str | None, float, float]] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, parent, started, time.perf_counter()))
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.records if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.records if n == name)

    def mean(self, name: str) -> float:
        return self.total(name) / self.calls(name)

    def summary(self) -> list[str]:
        """``name calls total self`` lines; self time excludes child spans."""
        lines = []
        for name in dict.fromkeys(n for n, *_ in self.records):
            total = self.total(name)
            children = sum(
                end - start for _, parent, start, end in self.records if parent == name
            )
            lines.append(
                f"# span {name:32s} calls={self.calls(name):<6d} "
                f"total={total:.6f}s self={total - children:.6f}s"
            )
        return lines


@contextmanager
def own_heap():
    """Keep the benchmark's own objects (corpus, oracle) out of the
    collector's way while a layer is replayed in this process, so the
    replay's garbage collections scan about what the program's would."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _queries(labels: dict) -> bool:
    return labels.get("endpoint") in QUERY_ENDPOINTS


def _router(labels: dict) -> bool:
    """Series the router reports itself (shard series carry a shard label)."""
    return "shard" not in labels


def _router_queries(labels: dict) -> bool:
    return _router(labels) and _queries(labels)


def _shard_queries(labels: dict) -> bool:
    return not _router(labels) and _queries(labels)


def registry_totals() -> dict:
    return parse_exposition(get_registry().render())


def delta(before: dict, after: dict, name: str, match=None) -> float:
    return sample_total(after, name, match) - sample_total(before, name, match)


def fold(m: Measured, part: Measured) -> None:
    """Count another scenario's operations and failures in ``m``."""
    m.attempted += part.attempted
    m.failed += part.failed
    m.problems.extend(part.problems)


def reconcile(values: dict, notes: dict, workload: str, total: float, layers: float) -> None:
    share = (total - layers) / total * 100.0
    name = f"reconcile.{workload}.unattributed_pct"
    values[name] = share
    flag = " FLAGGED" if abs(share) > spec.RECONCILE_LIMIT_PCT else ""
    notes[name] = f"layers {layers:.6g} of end-to-end {total:.6g}{flag}"


# ----------------------------------------------------------------------
# materialise
# ----------------------------------------------------------------------
def materialise_layers(bench, c, m, spans, values, notes) -> float:
    part = Measured()
    live = workloads.materialise_round(bench, c, part)
    fold(m, part)

    with own_heap():
        return _materialise_replay(c, spans, values, notes, live)


def _materialise_replay(c, spans, values, notes, live) -> float:
    from repro.core.api import compute_relationships
    from repro.core.kernels import kernel_counters
    from repro.core.space import ObservationSpace
    from repro.qb.loader import load_cubespace
    from repro.rdf.turtle import parse_turtle
    from repro.service import QueryEngine
    from repro.storage import LazyRelationshipIndex, SegmentStore
    from repro.store import save_relationships

    directory = live["directory"]
    replay_store = directory / "replay.rseg"
    text = (directory / "corpus.ttl").read_text()
    with spans.span("rdf.parse"):
        graph = parse_turtle(text)
    with spans.span("qb.load"):
        space = ObservationSpace.from_cubespace(load_cubespace(graph))
    stats: dict = {}
    kernels_before = kernel_counters()
    registry_before = registry_totals()
    with spans.span("core.cubemask.compute"):
        result = compute_relationships(space, "cube_masking", stats=stats)
    kernels_after = kernel_counters()
    with spans.span("core.results.materialise"):
        len(result.partial)
        len(result.degrees)
    with spans.span("storage.write"):
        save_relationships(result, str(replay_store), space=space)
    registry_after = registry_totals()

    values["rdf.parse_s"] = spans.total("rdf.parse")
    values["qb.load_s"] = spans.total("qb.load")
    values["core.cubemask.compute_s"] = spans.total("core.cubemask.compute")
    values["core.cubemask.cube_pairs"] = stats["cube_pairs"]
    values["core.cubemask.pruned_ratio"] = stats["pruned_cube_pairs"] / (
        stats["pruned_cube_pairs"] + stats["cube_pairs"]
    )
    values["core.kernels.kernel_s"] = (
        kernels_after["kernel_ns"] - kernels_before["kernel_ns"]
    ) / 1e9
    values["core.kernels.pairs"] = kernels_after["kernel_pairs"] - kernels_before["kernel_pairs"]
    values["core.results.materialise_s"] = spans.total("core.results.materialise")
    values["storage.write_s"] = spans.total("storage.write")
    values["storage.bytes_written"] = delta(
        registry_before, registry_after, "repro_storage_segment_bytes_written_total"
    )
    values["storage.segments"] = len(SegmentStore.open(replay_store).manifest["segments"])

    registry_before = registry_totals()
    with spans.span("storage.open"):
        store = SegmentStore.open(replay_store)
    with spans.span("service.first_query"):
        served = store.relationship_set()
        engine = QueryEngine(served, space, index=LazyRelationshipIndex(served, space))
        engine.containers(URIRef(c.uris[0]))
    registry_after = registry_totals()
    values["cli.serve_listening_s"] = live["listening_s"]
    values["storage.open_s"] = spans.total("storage.open")
    values["service.first_query_s"] = spans.total("service.first_query")
    values["storage.lazy_materialisations"] = delta(
        registry_before, registry_after, "repro_storage_lazy_materialisations_total"
    )
    values["storage.segment_loads"] = delta(
        registry_before, registry_after, "repro_storage_segment_loads_total"
    )

    layer_names = ("rdf.parse_s", "qb.load_s", "core.cubemask.compute_s",
                   "core.results.materialise_s", "storage.write_s",
                   "cli.serve_listening_s", "service.first_query_s")
    total = live["materialise_s"] + live["first_answer_s"]
    reconcile(values, notes, "materialise", total, sum(values[n] for n in layer_names))
    shutil.rmtree(directory)
    return total


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def lookup_layers(bench, c, m, spans, values, notes, duration) -> float:
    part = workloads.lookup(bench, c, duration=duration, on_server=scrape, reps=1)
    fold(m, part)
    before, after = part.info["scrapes"]
    client_p50 = statistics.median(part.latencies) * 1e3
    server_p50 = histogram_quantile(
        before, after, "repro_request_latency_seconds", 0.5, _queries
    ) * 1e3
    hits = delta(before, after, "repro_cache_hits_total")
    misses = delta(before, after, "repro_cache_misses_total")

    engine = workloads.local_engine(part.info["directory"])
    engine.containers(URIRef(c.uris[0]))  # build the lazy index outside the spans
    warm = workloads.WARM_REQUESTS["lookup"]
    for path in part.info["paths"][:warm]:  # the same cache fill the live server saw
        _query(engine, path)
    measured = part.info["paths"][warm:]
    for path in measured[: len(part.latencies)]:
        with spans.span(f"service.engine.{_endpoint(path)}"):
            _query(engine, path)
    for endpoint in sorted(QUERY_ENDPOINTS):
        values[f"service.engine.{endpoint}_us"] = spans.mean(f"service.engine.{endpoint}") * 1e6
    values["service.cache.hit_ratio"] = hits / (hits + misses)
    values["service.server.request_p50_ms"] = server_p50
    values["service.http.wait_ms"] = client_p50 - server_p50
    reconcile(values, notes, "lookup", client_p50, server_p50)
    return client_p50


def _endpoint(path: str) -> str:
    return path.rsplit("/", 1)[1].split("?")[0]


def _query(engine, path: str):
    """Answer ``/observations/<uri>/<endpoint>`` on an in-process engine."""
    uri = URIRef(unquote(path.split("/")[2]))
    endpoint = _endpoint(path)
    if endpoint == "related":
        return engine.related(uri, 10)
    return getattr(engine, endpoint)(uri)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def ingest_layers(bench, c, m, spans, values, notes) -> float:
    part = Measured()
    inputs = workloads.IngestInputs(bench, c, part, reps=1)
    live = workloads.ingest_round(bench, c, inputs, part, alone_seconds=2.0)
    fold(m, part)
    during = statistics.median(live["reads"].latencies)
    alone = statistics.median(live["alone"].latencies)
    values["service.rwlock.wait_ms"] = (during - alone) * 1e3
    with own_heap():
        _ingest_replay(inputs, live, spans, values, notes)
    shutil.rmtree(live["directory"])
    return live["ingest_s"] / len(inputs.lines)


def _ingest_replay(inputs, live, spans, values, notes) -> None:
    """Apply the held-out batches in-process through the calls
    ``QueryEngine.insert`` makes, one span per layer."""
    from repro.core.api import update_relationships
    from repro.core.space import ObservationSpace
    from repro.qb.loader import load_cubespace
    from repro.rdf.turtle import parse_turtle
    from repro.storage import LazyRelationshipIndex, SegmentStore
    from repro.stream import Changefeed
    from repro.stream.ingest import CsvObservationParser

    send_s = statistics.mean(live["sends"])
    replay = live["directory"] / "replay.rseg"
    shutil.copytree(inputs.directory / "store.rseg", replay)
    space = ObservationSpace.from_cubespace(load_cubespace(parse_turtle(inputs.ttl.read_text())))
    store = SegmentStore.open(replay)
    result = store.relationship_set()
    index = LazyRelationshipIndex(result, space)
    index.stats()  # build outside the spans, as the live server had
    feed = Changefeed(replay / "changefeed")
    parser = CsvObservationParser()
    entries = [entry for line in inputs.lines for entry in parser.feed(line)]
    batches = [entries[i:i + workloads.INGEST_BATCH]
               for i in range(0, len(entries), workloads.INGEST_BATCH)]
    registry_before = registry_totals()
    pairs = 0
    try:
        for batch in batches:
            tuples = [
                (URIRef(e["uri"]), URIRef(e["dataset"]),
                 {URIRef(k): URIRef(v) for k, v in e["dimensions"].items()},
                 [URIRef(x) for x in e["measures"]])
                for e in batch
            ]
            start = len(space)
            with spans.span("core.api.update"):
                _, change = update_relationships(space, result, tuples, return_delta=True)
            with spans.span("storage.wal.append"):
                store.append_delta(change)
            with spans.span("stream.changefeed.publish"):
                feed.publish(change, op="insert")
            with spans.span("service.index.apply"):
                for record in space.observations[start:]:
                    index.register(record.uri, record.dataset, space.level_signature(record.index))
                index.apply_delta(change)
            pairs += change.total_added()
    finally:
        store.close()
    registry_after = registry_totals()
    feed_bytes = sum(p.stat().st_size for p in (replay / "changefeed").glob("feed-*"))

    layers = ("core.api.update", "storage.wal.append", "stream.changefeed.publish",
              "service.index.apply")
    values["core.api.update_s"] = spans.mean("core.api.update")
    values["core.api.delta_pairs"] = pairs / len(batches)
    values["storage.wal.append_s"] = spans.mean("storage.wal.append")
    values["storage.wal.bytes"] = delta(
        registry_before, registry_after, "repro_wal_append_bytes_total"
    ) / len(batches)
    values["stream.changefeed.publish_s"] = spans.mean("stream.changefeed.publish")
    values["stream.changefeed.bytes"] = feed_bytes / len(batches)
    values["service.index.apply_s"] = spans.mean("service.index.apply")
    insert_s = sum(spans.mean(name) for name in layers)
    values["stream.ingest.http_overhead_ms"] = (send_s - insert_s) * 1e3
    reconcile(values, notes, "ingest", send_s, insert_s)


# ----------------------------------------------------------------------
# fanout
# ----------------------------------------------------------------------
def fanout_layers(bench, c, m, spans, values, notes, duration) -> float:
    part = workloads.fanout(bench, c, duration=duration, on_server=scrape, reps=1)
    fold(m, part)
    before, after = part.info["scrapes"]
    client_p50 = statistics.median(part.latencies) * 1e3
    router_p50 = histogram_quantile(
        before, after, "repro_request_latency_seconds", 0.5, _router_queries
    ) * 1e3
    shard_p50 = histogram_quantile(
        before, after, "repro_request_latency_seconds", 0.5, _shard_queries
    ) * 1e3
    values["cluster.router.scatter_width"] = delta(
        before, after, "repro_cluster_scatter_width_sum", _router
    ) / delta(before, after, "repro_cluster_scatter_width_count", _router)
    values["cluster.shard.request_p50_ms"] = shard_p50
    values["cluster.router.self_ms"] = router_p50 - shard_p50
    values["cluster.http.wait_ms"] = client_p50 - router_p50
    reconcile(values, notes, "fanout", client_p50, router_p50)
    return client_p50


# ----------------------------------------------------------------------
def untraced_primary(bench, c, workload: str, m: Measured, duration: float) -> float:
    """The selected workload's headline figure with telemetry off."""
    part = Measured()
    bench.traced = False
    try:
        if workload == "materialise":
            live = workloads.materialise_round(bench, c, part)
            shutil.rmtree(live["directory"])
            primary = live["materialise_s"] + live["first_answer_s"]
        elif workload == "ingest":
            inputs = workloads.IngestInputs(bench, c, part, reps=1)
            live = workloads.ingest_round(bench, c, inputs, part)
            primary = live["ingest_s"] / len(inputs.lines)
        else:
            run = workloads.lookup if workload == "lookup" else workloads.fanout
            part = run(bench, c, duration=duration, reps=1)
            primary = statistics.median(part.latencies) * 1e3
    finally:
        bench.traced = True
    fold(m, part)
    return primary


def traced_pass(bench, c, workload: str):
    """Run every workload's layers traced; returns ``(m, values, notes)``."""
    m = Measured()
    spans = Spans()
    values: dict = {}
    notes: dict = {}
    duration = max(2.0, bench.seconds / 3)
    traced = {
        "materialise": materialise_layers(bench, c, m, spans, values, notes),
        "lookup": lookup_layers(bench, c, m, spans, values, notes, duration),
        "ingest": ingest_layers(bench, c, m, spans, values, notes),
    }
    if workload == "fanout":
        traced["fanout"] = fanout_layers(bench, c, m, spans, values, notes, duration)
    untraced = untraced_primary(bench, c, workload, m, duration)
    values["obs.tracing_overhead_pct"] = (traced[workload] - untraced) / untraced * 100.0
    notes["obs.tracing_overhead_pct"] = (
        f"{workload}: traced {traced[workload]:.6g} against untraced {untraced:.6g}"
    )
    for line in spans.summary():
        print(line)
    return m, values, notes
