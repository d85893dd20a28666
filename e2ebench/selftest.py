"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import spec  # noqa: E402
from procs import ProcessTracker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORK = ROOT / ".bench_work"

# A child that starts a grandchild which leaves the process group,
# ignores SIGTERM, listens on a port and announces it -- the leak the
# hygiene check must catch.
LEAKER = """
import os, signal, socket, sys, time
if os.fork() == 0:
    os.setsid()
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen()
    print(f"listening port={server.getsockname()[1]} role=leaker", flush=True)
    time.sleep(120)
    sys.exit(0)
time.sleep(120)
"""


class HeldOutSplit(unittest.TestCase):
    def setUp(self):
        self.cube = corpus.build_corpus(5)

    def uris(self, seed):
        base, held = corpus.split_held_out(self.cube, seed)
        return corpus.observation_uris(base), [str(obs.uri) for obs in held]

    def test_deterministic_for_a_seed(self):
        self.assertEqual(self.uris(3), self.uris(3))
        self.assertNotEqual(self.uris(3)[1], self.uris(4)[1])

    def test_partitions_every_dataset(self):
        base, held = corpus.split_held_out(self.cube, 3)
        for uri, dataset in self.cube.datasets.items():
            held_here = [obs for obs in held if obs.dataset == uri]
            self.assertEqual(len(held_here), round(corpus.HELD_OUT_SHARE * len(dataset)))
            self.assertEqual(
                len(base.datasets[uri].observations) + len(held_here), len(dataset)
            )
        self.assertFalse(set(self.uris(3)[0]) & set(self.uris(3)[1]))

    def test_csv_lines_round_trip(self):
        from repro.stream.ingest import CsvObservationParser

        _, held = corpus.split_held_out(self.cube, 3)
        lines = [corpus.csv_line(obs) for obs in held]
        self.assertEqual(lines, [corpus.csv_line(obs) for obs in corpus.split_held_out(
            corpus.build_corpus(5), 3)[1]])
        parser = CsvObservationParser()
        for obs, line in zip(held, lines):
            (entry,) = parser.feed(line)
            self.assertEqual(entry["uri"], str(obs.uri))
            self.assertEqual(entry["dataset"], str(obs.dataset))
            self.assertEqual(
                entry["dimensions"],
                {str(dim): str(code) for dim, code in obs.dimensions.items()},
            )
            self.assertEqual(entry["measures"], [str(m) for m in obs.measures])
        self.assertEqual(parser.errors, 0)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [*spec.END_TO_END, *spec.PER_LAYER, *spec.FANOUT_PER_LAYER]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_names_match_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.benchmark["end_to_end"]}, spec.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.benchmark["per_layer"]}, spec.PER_LAYER
        )
        self.assertLessEqual({w["name"] for w in self.benchmark["workloads"]}, set(spec.ALIASES))


class Hygiene(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)

    def tearDown(self):
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it

    def test_clean_child_leaves_nothing(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tracker = ProcessTracker(Path(tmp), {"PATH": "/usr/bin:/bin"})
            child = tracker.spawn(
                "sleeper", [sys.executable, "-c", "import time; time.sleep(60)"], "sleeper"
            )
            tracker.stop(child, timeout=5)
            self.assertEqual(tracker.check(), [])

    def test_leaked_child_is_caught_and_killed(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            tracker = ProcessTracker(Path(tmp), {"PATH": "/usr/bin:/bin"})
            child = tracker.spawn("leaker", [sys.executable, "-c", LEAKER], "leaker")
            port = child.wait_listening(timeout=30)
            tracker.note_ports(child)
            tracker.stop(child, timeout=2)
            problems = tracker.check()
            self.assertIn(f"port {port} still listening", problems)
            self.assertTrue(any("still alive" in p for p in problems), problems)
            deadline = time.monotonic() + 5
            while tracker.survivors() and time.monotonic() < deadline:
                time.sleep(0.05)
            self.assertEqual(tracker.survivors(), [])
            self.assertEqual(tracker.check(), [])


if __name__ == "__main__":
    unittest.main()
