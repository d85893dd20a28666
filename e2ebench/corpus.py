"""Workload inputs, all made from the workload seed.

The corpus is the Table 4 emulation (:func:`build_realworld_cubespace`)
at :data:`SCALE`; the program only ever sees the files written here.
The oracle is the paper's Alg. 1-2 baseline, computed in-process.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from repro.core.api import compute_relationships
from repro.data.realworld import build_realworld_cubespace
from repro.qb.model import CubeSpace, Dataset
from repro.qb.writer import cubespace_to_graph
from repro.rdf.turtle import serialize_turtle

#: 740 observations, ~133k containment pairs per seed.
SCALE = 0.003
HELD_OUT_SHARE = 0.2
ENDPOINTS = ("containers", "contained", "complements", "related?k=10")


def build_corpus(seed: int) -> CubeSpace:
    return build_realworld_cubespace(scale=SCALE, seed=seed)


def write_turtle(cube: CubeSpace, path: Path) -> Path:
    path.write_text(serialize_turtle(cubespace_to_graph(cube)))
    return path


def observation_uris(cube: CubeSpace) -> list[str]:
    return [str(obs.uri) for obs in cube.observations()]


def split_held_out(cube: CubeSpace, seed: int, share: float = HELD_OUT_SHARE):
    """Hold out a seeded ``share`` of every dataset.

    Returns ``(base, held_out)``: a cube with the remaining observations
    (original order kept) and the held-out observations in a seeded
    stream order that interleaves the datasets.
    """
    rng = np.random.default_rng(seed)
    base = CubeSpace(cube.hierarchies)
    held_out = []
    for dataset in cube.datasets.values():
        count = len(dataset.observations)
        chosen = set(rng.choice(count, size=round(share * count), replace=False).tolist())
        kept = [obs for i, obs in enumerate(dataset.observations) if i not in chosen]
        held_out.extend(obs for i, obs in enumerate(dataset.observations) if i in chosen)
        base.datasets[dataset.uri] = Dataset(
            dataset.uri, dataset.schema, kept, dataset.label
        )
    return base, [held_out[i] for i in rng.permutation(len(held_out))]


def csv_line(observation) -> str:
    """One ``uri,dataset,dim=code|...,measure|...`` ingest line."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(
        [
            str(observation.uri),
            str(observation.dataset),
            "|".join(f"{dim}={code}" for dim, code in observation.dimensions.items()),
            "|".join(str(measure) for measure in observation.measures),
        ]
    )
    return buffer.getvalue()


def request_paths(uris: list[str], seed: int, count: int, endpoints=ENDPOINTS) -> list[str]:
    """``count`` query paths over Zipf-skewed (endpoint, URI) keys."""
    from urllib.parse import quote

    rng = np.random.default_rng(seed)
    keys = [(endpoint, uri) for uri in uris for endpoint in endpoints]
    order = rng.permutation(len(keys))
    weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
    picks = rng.choice(len(keys), size=count, p=weights / weights.sum())
    paths = []
    for pick in picks:
        endpoint, uri = keys[order[pick]]
        paths.append(f"/observations/{quote(uri, safe='')}/{endpoint}")
    return paths


class Oracle:
    """The Def. 3/4 relationships of a corpus, by the baseline method."""

    def __init__(self, cube: CubeSpace):
        result = compute_relationships(cube, method="baseline")
        self.full = {(str(a), str(b)) for a, b in result.full}
        self.partial = {(str(a), str(b)) for a, b in result.partial}
        self.complementary = {(str(a), str(b)) for a, b in result.complementary}
        self.containers: dict[str, set[str]] = {}
        self.contained: dict[str, set[str]] = {}
        self.complements: dict[str, set[str]] = {}
        for a, b in self.full:
            self.contained.setdefault(a, set()).add(b)
            self.containers.setdefault(b, set()).add(a)
        for a, b in self.complementary:
            self.complements.setdefault(a, set()).add(b)
            self.complements.setdefault(b, set()).add(a)

    def counts(self) -> dict:
        return {
            "full": len(self.full),
            "partial": len(self.partial),
            "complementary": len(self.complementary),
        }

    def answer(self, endpoint: str, uri: str) -> list[str]:
        """The expected sorted answer of a point-lookup endpoint."""
        table = {
            "containers": self.containers,
            "contained": self.contained,
            "complements": self.complements,
        }[endpoint]
        return sorted(table.get(uri, ()))

    def matches_sets(self, result) -> bool:
        """Whether a relationship set holds exactly the oracle's pairs."""
        return (
            {(str(a), str(b)) for a, b in result.full} == self.full
            and {(str(a), str(b)) for a, b in result.partial} == self.partial
            and {(str(a), str(b)) for a, b in result.complementary}
            == self.complementary
        )
