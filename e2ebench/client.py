"""HTTP load generation, percentiles and metric scrapes."""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.obs.exposition import parse_exposition

HOST = "127.0.0.1"


def get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def get_json(port: int, path: str, timeout: float = 30.0):
    """One request on a fresh connection; returns the decoded body."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        status, body = get(conn, path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> HTTP {status}: {body[:200]!r}")
    return json.loads(body)


def wait_first_answer(port: int, path: str, timeout: float = 60.0) -> dict:
    """Retry ``path`` until the server answers 200 (or ``timeout``)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return get_json(port, path, timeout=timeout)
        except (OSError, http.client.HTTPException):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


class Connection:
    """A client connection: kept alive across requests, or fresh per request.

    A pooled server may close an idle kept-alive connection when other
    connections are queued (``repro.service.server.pooled_handle``), and
    a request racing that close fails before any response.  Like common
    HTTP clients -- and the cluster router's own shard client -- a GET
    that fails that way on a *reused* connection is retried once on a
    fresh one; the request's latency covers both attempts.
    """

    def __init__(self, port: int, keep_alive: bool, timeout: float = 60.0):
        self.port = port
        self.keep_alive = keep_alive
        self.timeout = timeout
        self._conn = None
        self._reused = False

    def _fresh(self) -> http.client.HTTPConnection:
        self.close()
        self._conn = http.client.HTTPConnection(HOST, self.port, timeout=self.timeout)
        self._reused = False
        return self._conn

    def get(self, path: str) -> tuple[int, bytes]:
        if not self.keep_alive:
            try:
                return get(self._fresh(), path)
            finally:
                self.close()
        conn = self._conn or self._fresh()
        try:
            answer = get(conn, path)
        except ConnectionError:
            if not self._reused:
                self.close()
                raise
            answer = get(self._fresh(), path)
        self._reused = True
        return answer

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class LoopResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.elapsed = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float, status: int, path: str = "") -> None:
        """Count one request; any status but 200 is a failure."""
        with self._lock:
            self.attempted += 1
            if status == 200:
                self.latencies.append(seconds)
            else:
                self.failed += 1
                key = f"HTTP {status} on {path.split('?')[0].rsplit('/', 1)[-1]}"
                self.errors[key] = self.errors.get(key, 0) + 1


def closed_loop(
    port: int,
    paths: list[str],
    clients: int,
    duration: float | None,
    keep_alive: bool,
    result: LoopResult | None = None,
    stop: threading.Event | None = None,
) -> LoopResult:
    """``clients`` threads each send their next request when the last
    one is answered, cycling through their share of ``paths``.

    Runs for ``duration`` seconds, or, with ``duration=None``, until
    ``stop`` is set (or once through ``paths`` when neither is given).
    """
    result = result if result is not None else LoopResult()
    deadline = None if duration is None else time.perf_counter() + duration
    once = duration is None and stop is None

    def client(share: list[str]) -> None:
        conn = Connection(port, keep_alive)
        i = 0
        try:
            while share:
                if once and i == len(share):
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if stop is not None and stop.is_set():
                    break
                path = share[i % len(share)]
                i += 1
                started = time.perf_counter()
                try:
                    status, _ = conn.get(path)
                except (OSError, http.client.HTTPException):
                    status = 0
                    conn.close()
                result.record(time.perf_counter() - started, status, path)
        finally:
            conn.close()

    shares = [paths[c::clients] for c in range(clients)]
    threads = [threading.Thread(target=client, args=(share,)) for share in shares]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed += time.perf_counter() - started
    return result


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Prometheus scrapes
# ----------------------------------------------------------------------
def scrape(port: int) -> dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        status, body = get(conn, "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics -> HTTP {status}")
    return parse_exposition(body.decode())


def sample_total(families: dict, name: str, match=None) -> float:
    """Sum of every sample called ``name`` whose labels pass ``match``."""
    total = 0.0
    for family in families.values():
        for sample in family.samples:
            if sample.name == name and (match is None or match(sample.labels)):
                total += sample.value
    return total


def histogram_quantile(before: dict, after: dict, name: str, q: float, match=None) -> float:
    """``q``-quantile of the observations a histogram gained between two
    scrapes, interpolated linearly inside the bucket (PromQL-style)."""

    def buckets(families):
        out: dict[float, float] = {}
        for family in families.values():
            for sample in family.samples:
                if sample.name != name + "_bucket":
                    continue
                if match is not None and not match(sample.labels):
                    continue
                le = float(sample.labels["le"])
                out[le] = out.get(le, 0.0) + sample.value
        return out

    start, end = buckets(before), buckets(after)
    bounds = sorted(end)
    cumulative = [end[b] - start.get(b, 0.0) for b in bounds]
    if not cumulative or cumulative[-1] <= 0:
        raise ValueError(f"no {name} observations between the scrapes")
    rank = q * cumulative[-1]
    lower, below = 0.0, 0.0
    for bound, count in zip(bounds, cumulative):
        if count >= rank:
            if bound == float("inf"):
                return lower
            share = (rank - below) / (count - below) if count > below else 0.0
            return lower + (bound - lower) * share
        lower, below = bound, count
    return lower
