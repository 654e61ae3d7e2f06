"""Benchmark runs as the paired gate reads them: one sample per run.

A pytest-benchmark JSON export is one run of the suite.  The gate reads
each benchmark's ``stats.median`` from it, in raw seconds, and nothing
else: the rounds inside one pytest process share its warm-up, its heap and
its moment on the host, so they are not independent samples (their
bootstrap interval comes out far narrower than the spread between runs).
A :class:`BenchRun` gathers several exports of one tree, so each
benchmark's samples are its per-run medians.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

__all__ = ["BenchRun", "load_runs"]


@dataclass(frozen=True)
class BenchRun:
    """Several pytest-benchmark runs of one tree.

    ``samples`` maps each benchmark to its median in seconds from every run
    that measured it, in run order; ``runs`` counts the exports read.
    """

    samples: Mapping[str, tuple]
    runs: int

    def names(self) -> list:
        """Sorted benchmark names measured in at least one run."""
        return sorted(self.samples)


def _run_medians(data: dict) -> dict:
    """Each benchmark's median in seconds from one export's ``stats``."""
    medians = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("fullname") or entry["name"]
        value = float(entry["stats"]["median"])
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"benchmark {name!r} has median {value!r}, not a positive "
                f"number of seconds"
            )
        medians[name] = value
    return medians


def load_runs(paths: Sequence[Union[str, Path]]) -> BenchRun:
    """Read pytest-benchmark JSON exports of one tree into a :class:`BenchRun`.

    Per-iteration ``stats.data`` is ignored.  An unreadable or malformed
    export raises a ``ValueError`` naming its path.
    """
    samples: dict = {}
    for path in paths:
        try:
            medians = _run_medians(json.loads(Path(path).read_text()))
        except (OSError, AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"cannot read benchmark run {str(path)!r}: {error}"
            ) from error
        for name, value in medians.items():
            samples.setdefault(name, []).append(value)
    return BenchRun(
        samples={name: tuple(values) for name, values in samples.items()},
        runs=len(paths),
    )
