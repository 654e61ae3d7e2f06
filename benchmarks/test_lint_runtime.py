"""Lint-runtime budget: the whole-package lint must stay fast enough for CI.

The SER family made ``repro lint`` interprocedural: it builds a call graph
of the whole package and walks it from every registered writer, so its
cost scales with the whole package, not per file.  SER builds that graph
once per lint (pinned by ``tests/test_analysis_serialization.py``); this
benchmark pins the cost two ways:

* a hard wall-clock **budget** asserted here (generous, so slow CI runners
  never flake, but a quadratic blow-up in the resolver fails loudly);
* a pytest-benchmark metric gated through ``compare.py`` like every other
  benchmark, so gradual creep shows up as a regression diff even while the
  budget still passes.
"""

from __future__ import annotations

from repro.analysis import run_lint
from repro.obs.clock import WallClock

#: Hard ceiling for one full lint of the installed package, in seconds.
#: ~10x the current cost on a development machine — headroom for slow CI
#: runners, not for algorithmic regressions.
LINT_BUDGET_SECONDS = 20.0


def test_full_package_lint_runtime(benchmark):
    """One complete lint (every family) of the shipped package."""
    clock = WallClock()
    start = clock.now_seconds()
    report = benchmark(run_lint)
    elapsed = clock.now_seconds() - start

    assert report.clean, report.render_text()
    assert report.files_scanned > 100, "lint scanned suspiciously few files"
    assert elapsed < LINT_BUDGET_SECONDS, (
        f"full-package lint took {elapsed:.1f}s (budget "
        f"{LINT_BUDGET_SECONDS:.0f}s); the interprocedural analysis has "
        f"likely regressed super-linearly"
    )


def test_ser_only_lint_runtime(benchmark):
    """A lint reporting only SER findings.

    ``select`` filters findings after every family has run, so this costs
    one full lint, like ``test_full_package_lint_runtime``.
    """
    report = benchmark(run_lint, select=["SER"])
    assert report.clean, report.render_text()
