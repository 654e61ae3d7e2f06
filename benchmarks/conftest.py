"""Benchmark harness configuration.

Each benchmark runs its experiment once per pytest run (``rounds=1``):
these are *result-regeneration* harnesses, and one run of each experiment
is what the paper reports.  Run locally with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables.  The regression gate takes one
sample per run, so it needs several exports of each side, run in
alternating order on one machine::

    pytest benchmarks/ --benchmark-only --benchmark-json=change-1.json
    python benchmarks/compare.py --base base-*.json --change change-*.json

A benchmark whose timed body changes gets a new name, so the gate reports
the old name as missing and the new one as new instead of comparing
different work.

The bare-checkout import fallback lives in the repository-root conftest.py,
which pytest loads before this file.
"""

from __future__ import annotations
