"""The four workloads, measured end to end against the real CLI processes.

Each workload function returns a :class:`Measured`: raw samples per
end-to-end metric, plus the attempted/failed operation counts that the
correctness checks also feed (a wrong answer is a failed operation).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote

import corpus
from client import Connection, LoopResult, closed_loop, get_json, wait_first_answer
from procs import Child, ProcessTracker

from repro.rdf.terms import URIRef

CLIENTS = 2
SETUP_REPS = 3
MIN_ROUNDS = 3
INGEST_BATCH = 25
HOT_SET = 64
CHECK_SAMPLE = 24
#: Requests sent on fresh connections to fill the query caches before a
#: measured loop (fewer through the router, which answers in ~45 ms).
WARM_REQUESTS = {"lookup": 1500, "fanout": 150}


class Measured:
    """Samples and operation counts of one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.latencies: list[float] = []
        self.ops = 0
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def loop(self, result: LoopResult, ops: bool = True) -> None:
        """Fold in a client loop; its requests are the workload's
        operations unless ``ops`` is false."""
        self.latencies.extend(result.latencies)
        if ops:
            self.ops += len(result.latencies)
            self.op_seconds += result.elapsed
        self.attempted += result.attempted
        self.failed += result.failed
        for error, count in result.errors.items():
            self.problems.append(f"{count} request(s) failed: {error}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"wrong answer: {what}")


class Corpus:
    """The seeded corpus, its URIs and its baseline oracle."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cube = corpus.build_corpus(seed)
        self.uris = corpus.observation_uris(self.cube)
        self.oracle = corpus.Oracle(self.cube)

    def first_path(self) -> str:
        return f"/observations/{quote(self.uris[0], safe='')}/containers"


class Bench:
    """Starts program processes for one run, with or without telemetry."""

    def __init__(self, root: Path, workdir: Path, seconds: float, traced: bool):
        self.workdir = workdir
        self.seconds = seconds
        self.traced = traced
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracker = ProcessTracker(workdir, env)
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{name}-{self._dirs}"
        path.mkdir()
        return path

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]

    def telemetry(self, directory: Path) -> list[str]:
        """Serve/cluster flags: tracing on in a traced run, off otherwise."""
        if self.traced:
            return ["--span-dir", str(directory / "spans")]
        return ["--no-profiler"]

    def compute(self, ttl: Path, store: Path) -> tuple[float, float]:
        args = ["compute", "--input", str(ttl), "--method", "cube_masking", "-o", str(store)]
        if self.traced:
            args += ["--trace", str(store.parent / "compute-trace.jsonl")]
        return self.tracker.run("compute", self.repro(*args), timeout=150)

    def start(self, kind: str, store: Path, ttl: Path, first_path: str) -> tuple[Child, float]:
        """Start ``repro serve`` or ``repro cluster`` cold; returns the child
        and the seconds from spawn to its first answer to ``first_path``."""
        if kind == "serve":
            args = ["serve", "--store", str(store), "--input", str(ttl), "--port", "0"]
        else:
            args = [
                "cluster", "--store", str(store), "--input", str(ttl), "--port", "0",
                "--shards", "2", "--replicas", "1",
            ]
        role = "serve" if kind == "serve" else "router"
        child = self.tracker.spawn(kind, self.repro(*args, *self.telemetry(store.parent)), role)
        port = child.wait_listening(timeout=120)
        wait_first_answer(port, first_path)
        first_answer = time.perf_counter() - child.started
        self.tracker.note_ports(child)
        return child, first_answer


def store_bytes_per_pair(store: Path) -> float:
    manifest = json.loads((store / "MANIFEST.json").read_text())
    pairs = sum(manifest["totals"].values())
    size = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
    return size / pairs


def local_engine(directory: Path):
    """A single-server :class:`QueryEngine` built in-process exactly as
    ``repro serve`` builds it, over a stored corpus."""
    from repro.core.space import ObservationSpace
    from repro.qb.loader import load_cubespace
    from repro.rdf.turtle import parse_turtle
    from repro.service import QueryEngine
    from repro.storage import LazyRelationshipIndex, SegmentStore

    space = ObservationSpace.from_cubespace(
        load_cubespace(parse_turtle((directory / "corpus.ttl").read_text()))
    )
    result = SegmentStore.open(directory / "store.rseg").relationship_set()
    return QueryEngine(result, space, index=LazyRelationshipIndex(result, space))


def related_rows(rows) -> list[tuple]:
    return [(str(row["uri"]), round(float(row["score"]), 9), row["relation"]) for row in rows]


def check_answers(port: int, c: Corpus, m: Measured, endpoints, engine=None) -> None:
    """Compare sampled HTTP answers with the oracle (and, for ``related``,
    with a single-server engine over the same store)."""
    import numpy as np

    rng = np.random.default_rng(c.seed + 7)
    sample = [c.uris[i] for i in rng.choice(len(c.uris), CHECK_SAMPLE, replace=False)]
    oracle = c.oracle
    for uri in sample:
        for endpoint in endpoints:
            path = f"/observations/{quote(uri, safe='')}/{endpoint}"
            body = get_json(port, path)
            name = endpoint.split("?")[0]
            if name != "related":
                m.check(sorted(body[name]) == oracle.answer(name, uri), path)
                continue
            rows = related_rows(body["related"])
            ok = all(_relation_holds(oracle, uri, other, rel) for other, _, rel in rows)
            if engine is not None:
                ok = ok and rows == related_rows(engine.related(URIRef(uri), 10))
            m.check(ok, path)


def _relation_holds(oracle, uri: str, other: str, relation: str) -> bool:
    if relation == "full-container":
        return other in oracle.containers.get(uri, ())
    if relation == "full-contained":
        return other in oracle.contained.get(uri, ())
    if relation == "complement":
        return other in oracle.complements.get(uri, ())
    if relation == "partial-contained":
        return (uri, other) in oracle.partial
    if relation == "partial-container":
        return (other, uri) in oracle.partial
    return False


# ----------------------------------------------------------------------
# materialise
# ----------------------------------------------------------------------
def materialise_round(bench: Bench, c: Corpus, m: Measured) -> dict:
    """Corpus file -> ``repro compute -o store.rseg`` -> cold ``repro
    serve`` -> first answer -> one cold lookup of every observation on
    fresh connections.  Returns the round's timings."""
    from repro.storage import SegmentStore

    started = time.perf_counter()
    cube = corpus.build_corpus(c.seed)
    directory = bench.fresh_dir("materialise")
    ttl = corpus.write_turtle(cube, directory / "corpus.ttl")
    m.add("setup_s", time.perf_counter() - started)

    store = directory / "store.rseg"
    materialise_s, rss = bench.compute(ttl, store)
    child, first_answer_s = bench.start("serve", store, ttl, c.first_path())
    sweep = [f"/observations/{quote(uri, safe='')}/containers" for uri in c.uris]
    m.loop(closed_loop(child.port, sweep, CLIENTS, None, keep_alive=False))
    check_answers(child.port, c, m, ("containers",))
    bench.tracker.stop(child)

    m.add("materialise_s", materialise_s)
    m.add("first_answer_s", first_answer_s)
    m.add("peak_rss_mb", rss)
    m.add("store_bytes_per_pair", store_bytes_per_pair(store))
    m.check(c.oracle.matches_sets(SegmentStore.open(store).load()), "store pair sets")
    return {
        "materialise_s": materialise_s,
        "first_answer_s": first_answer_s,
        "listening_s": child.listening_at - child.started,
        "directory": directory,
    }


def materialise(bench: Bench, c: Corpus) -> Measured:
    m = Measured()
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < bench.seconds:
        shutil.rmtree(materialise_round(bench, c, m)["directory"])
        rounds += 1
    return m


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def serve_warm(bench: Bench, c: Corpus, kind: str, m: Measured, reps: int):
    """Set up ``reps`` times -- write the corpus, materialise it, start the
    server cold and wait for its first answer -- and keep the last server
    running.  Returns ``(child, port, directory)``."""
    child = None
    for _ in range(reps):
        if child is not None:
            bench.tracker.stop(child)
        started = time.perf_counter()
        directory = bench.fresh_dir(kind)
        ttl = corpus.write_turtle(c.cube, directory / "corpus.ttl")
        store = directory / "store.rseg"
        materialise_s, _ = bench.compute(ttl, store)
        child, first_answer_s = bench.start(kind, store, ttl, c.first_path())
        m.add("setup_s", time.perf_counter() - started)
        m.add("materialise_s", materialise_s)
        m.add("first_answer_s", first_answer_s)
        m.add("store_bytes_per_pair", store_bytes_per_pair(store))
    return child, child.port, directory


def lookup(bench: Bench, c: Corpus, duration: float | None = None, on_server=None,
           reps: int = SETUP_REPS) -> Measured:
    """Warm ``repro serve``, closed loop on keep-alive connections."""
    m = Measured()
    child, port, directory = serve_warm(bench, c, "serve", m, reps)
    paths = corpus.request_paths(c.uris, c.seed, 40_000)
    warm = WARM_REQUESTS["lookup"]
    closed_loop(port, paths[:warm], CLIENTS, None, keep_alive=False)
    before = on_server(port) if on_server else None
    m.loop(closed_loop(
        port, paths[warm:], CLIENTS, duration or bench.seconds, keep_alive=True
    ))
    if on_server:
        m.info["scrapes"] = (before, on_server(port))
        m.info["paths"] = paths
    m.add("peak_rss_mb", child.peak_rss_mb(bench.tracker))
    check_answers(port, c, m, corpus.ENDPOINTS, engine=local_engine(directory))
    bench.tracker.stop(child)
    m.info["directory"] = directory
    return m


# ----------------------------------------------------------------------
# fanout
# ----------------------------------------------------------------------
FANOUT_ENDPOINTS = ("containers", "related?k=10")


def fanout(bench: Bench, c: Corpus, duration: float | None = None, on_server=None,
           reps: int = SETUP_REPS) -> Measured:
    """``repro cluster --shards 2 --replicas 1``; closed loop through the
    router, a fresh connection per request."""
    m = Measured()
    child, port, directory = serve_warm(bench, c, "cluster", m, reps)
    paths = corpus.request_paths(c.uris, c.seed, 40_000, FANOUT_ENDPOINTS)
    warm = WARM_REQUESTS["fanout"]
    closed_loop(port, paths[:warm], CLIENTS, None, keep_alive=False)
    before = on_server(port) if on_server else None
    m.loop(closed_loop(
        port, paths[warm:], CLIENTS, duration or bench.seconds, keep_alive=False
    ))
    if on_server:
        m.info["scrapes"] = (before, on_server(port))
    m.add("peak_rss_mb", child.peak_rss_mb(bench.tracker))
    check_answers(port, c, m, FANOUT_ENDPOINTS, engine=local_engine(directory))
    bench.tracker.stop(child)
    return m


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class TimedSink:
    """Wraps a sink, records the wall time of every ``send`` and sets
    ``streaming`` when the first batch goes out."""

    def __init__(self, sink):
        self.sink = sink
        self.seconds: list[float] = []
        self.streaming = threading.Event()

    def send(self, batch, trace_id=None):
        self.streaming.set()
        started = time.perf_counter()
        ack = self.sink.send(batch, trace_id=trace_id)
        self.seconds.append(time.perf_counter() - started)
        return ack

    def close(self) -> None:
        self.sink.close()


def reader_loop(port: int, hot: list[str], result: LoopResult, stop: threading.Event,
                streaming: threading.Event | None = None) -> None:
    """One keep-alive reader: lookups over the hot set, polling
    ``/changes`` every eighth request.  With ``streaming``, only requests
    sent once it is set are recorded (reads during the stream)."""
    import http.client

    conn = Connection(port, keep_alive=True)
    cursor = 0
    i = 0
    try:
        while not stop.is_set():
            if i % 8 == 7:
                path = f"/changes?since={cursor}&limit=1"
            else:
                endpoint = "containers" if i % 2 else "related?k=10"
                path = f"/observations/{quote(hot[i % len(hot)], safe='')}/{endpoint}"
            i += 1
            counted = streaming is None or streaming.is_set()
            started = time.perf_counter()
            try:
                status, body = conn.get(path)
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                conn.close()
            if counted:
                result.record(time.perf_counter() - started, status, path)
            if status == 200 and path.startswith("/changes"):
                cursor = json.loads(body)["next"]
    finally:
        conn.close()


class IngestInputs:
    """The base corpus (materialised once), the held-out CSV lines and
    the reader's hot set."""

    def __init__(self, bench: Bench, c: Corpus, m: Measured, reps: int = SETUP_REPS):
        import numpy as np

        self.base, self.held_out = corpus.split_held_out(c.cube, c.seed)
        self.lines = [corpus.csv_line(obs) for obs in self.held_out]
        base_uris = corpus.observation_uris(self.base)
        rng = np.random.default_rng(c.seed + 1)
        self.hot = [base_uris[i] for i in rng.choice(len(base_uris), HOT_SET, replace=False)]
        self.first_path = f"/observations/{quote(base_uris[0], safe='')}/containers"
        self.directory = bench.fresh_dir("ingest-base")
        self.ttl = corpus.write_turtle(self.base, self.directory / "corpus.ttl")
        store = self.directory / "store.rseg"
        for _ in range(reps):  # the median of several materialisations
            shutil.rmtree(store, ignore_errors=True)
            materialise_s, _ = bench.compute(self.ttl, store)
            m.add("materialise_s", materialise_s)
        m.add("store_bytes_per_pair", store_bytes_per_pair(store))


def ingest_round(bench: Bench, c: Corpus, inputs: IngestInputs, m: Measured,
                 alone_seconds: float = 0.0) -> dict:
    """A server on a fresh copy of the base store; the held-out stream
    through ``StreamIngester`` + ``HttpSink`` with one reader beside it."""
    from repro.stream.ingest import CsvObservationParser, HttpSink, StreamIngester

    started = time.perf_counter()
    directory = bench.fresh_dir("ingest")
    store = directory / "store.rseg"
    shutil.copytree(inputs.directory / "store.rseg", store)
    child, first_answer_s = bench.start("serve", store, inputs.ttl, inputs.first_path)
    port = child.port
    m.add("setup_s", time.perf_counter() - started)
    m.add("first_answer_s", first_answer_s)
    out = {"directory": directory}
    if alone_seconds:
        alone = LoopResult()
        stop = threading.Event()
        timer = threading.Timer(alone_seconds, stop.set)
        timer.start()
        reader_loop(port, inputs.hot, alone, stop)
        out["alone"] = alone
    sink = TimedSink(HttpSink(f"http://127.0.0.1:{port}"))
    ingester = StreamIngester(
        sink, CsvObservationParser(), batch_size=INGEST_BATCH, flush_interval=3600.0,
        max_inflight=1,
    )
    reads = LoopResult()
    stop = threading.Event()
    reader = threading.Thread(
        target=reader_loop, args=(port, inputs.hot, reads, stop, sink.streaming)
    )
    reader.start()
    started = time.perf_counter()
    try:
        stats = ingester.run(inputs.lines)
    finally:
        ingest_s = time.perf_counter() - started
        stop.set()
        reader.join()
    reads.elapsed = ingest_s
    m.loop(reads, ops=False)
    m.ops += stats.observations
    m.op_seconds += ingest_s
    m.attempted += stats.batches + stats.failed_batches
    m.failed += stats.failed_batches
    m.add("peak_rss_mb", child.peak_rss_mb(bench.tracker))

    index = get_json(port, "/stats")["index"]
    served = {
        "full": index["full_pairs"],
        "partial": index["partial_pairs"],
        "complementary": index["complementary_pairs"],
    }
    m.check(served == c.oracle.counts(), f"pair counts {served} != {c.oracle.counts()}")
    feed = get_json(port, "/changes?since=0&limit=1000")
    offsets = [record["offset"] for record in feed["changes"]]
    m.check(
        len(offsets) == stats.batches
        and offsets == sorted(set(offsets))
        and offsets[-1:] == [stats.last_offset],
        f"changefeed offsets {offsets} for {stats.batches} acknowledged batches",
    )
    bench.tracker.stop(child)
    out.update(sends=sink.seconds, reads=reads, ingest_s=ingest_s, port=port)
    return out


#: Reader samples wanted per ingest run: the reader gets about one
#: answer per write batch, and the p70 tail needs ten samples beyond it.
INGEST_READER_SAMPLES = 34


def ingest(bench: Bench, c: Corpus) -> Measured:
    m = Measured()
    inputs = IngestInputs(bench, c, m)
    measured = 0.0
    rounds = 0
    while (
        rounds < MIN_ROUNDS
        or measured < bench.seconds
        or len(m.latencies) < INGEST_READER_SAMPLES
    ):
        out = ingest_round(bench, c, inputs, m)
        measured += out["ingest_s"]
        shutil.rmtree(out["directory"])
        rounds += 1
    return m


WORKLOADS = {
    "materialise": materialise,
    "lookup": lookup,
    "ingest": ingest,
    "fanout": fanout,
}
