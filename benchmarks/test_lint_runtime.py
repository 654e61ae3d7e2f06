"""Lint-runtime budget: the whole-package lint must stay fast enough for CI.

Every rule family is syntactic: the module-scoped families (DET, CON, API)
read one file at a time and the layering family reads the package's
import graph, so a lint costs one parse and a few walks per module.  This
benchmark pins that cost two ways:

* a hard wall-clock **budget** asserted here (generous, so slow CI runners
  never flake, but a quadratic blow-up in a rule fails loudly);
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
        f"{LINT_BUDGET_SECONDS:.0f}s); a rule has likely regressed "
        f"super-linearly"
    )
