"""Suite-hygiene smoke tests: the test suite must survive sharding/parallelism.

CI splits the suite into file-hash shards and the batch subsystem runs
worker processes out of arbitrary directories, so the suite itself must
be free of ordering, working-directory, and shared-scratch assumptions.
These tests pin that discipline:

* no test module writes to the current working directory or a hard-coded
  scratch path (audited statically over the suite's source);
* the shard assignment is a partition — every test file lands in exactly
  one shard, for any shard count;
* the paths test infrastructure depends on (golden corpus, units
  baseline) resolve relative to ``__file__``, never the cwd.
"""

from __future__ import annotations

import re
from pathlib import Path

import conftest as root_conftest

TESTS_DIR = Path(__file__).resolve().parent
#: Every suite file except this one (it spells the forbidden patterns out).
SUITE_FILES = [
    path
    for path in (
        sorted(TESTS_DIR.glob("test_*.py"))
        + sorted((TESTS_DIR.parent / "benchmarks").glob("test_*.py"))
    )
    if path.name != Path(__file__).name
]

#: Patterns that smuggle in cwd or shared-scratch dependence.  ``os.chdir``
#: breaks any test collected after it in the same process; literal ``/tmp``
#: paths collide across parallel CI jobs; ``tempfile`` APIs bypass pytest's
#: per-test ``tmp_path`` isolation and its cleanup.
_FORBIDDEN = [
    (re.compile(r"\bos\.chdir\s*\("), "os.chdir() changes cwd for later tests"),
    (re.compile(r"\bos\.getcwd\s*\("), "cwd-dependent path resolution"),
    (re.compile(r"Path\.cwd\s*\("), "cwd-dependent path resolution"),
    (re.compile(r"[\"']/tmp/"), "hard-coded /tmp path shared across runs"),
    (re.compile(r"\btempfile\.\w+"), "raw tempfile API instead of tmp_path"),
]


def test_suite_files_avoid_cwd_and_shared_scratch():
    offenders = []
    for path in SUITE_FILES:
        source = path.read_text()
        for pattern, why in _FORBIDDEN:
            for match in pattern.finditer(source):
                line = source[: match.start()].count("\n") + 1
                offenders.append(f"{path.name}:{line}: {why}")
    assert offenders == [], "\n".join(offenders)


def test_shard_assignment_is_a_partition():
    names = [path.name for path in SUITE_FILES]
    for shard_count in (2, 3, 5):
        shards = [root_conftest.shard_for_file(name, shard_count) for name in names]
        assert all(0 <= shard < shard_count for shard in shards)
        # Stable: same name, same shard, every time.
        assert shards == [
            root_conftest.shard_for_file(name, shard_count) for name in names
        ]


def test_two_way_shard_split_is_nontrivial():
    # Degenerate sharding (everything in one shard) would silently serialize
    # CI; with this many test files both shards must be populated.
    names = [path.name for path in SUITE_FILES]
    shards = {root_conftest.shard_for_file(name, 2) for name in names}
    assert shards == {0, 1}


def test_infrastructure_paths_are_file_anchored():
    # The suite's data directories resolve via __file__, so tests pass no
    # matter which directory pytest is launched from.
    from tests import test_golden_flows

    assert test_golden_flows.GOLDEN_DIR.is_absolute()
    assert test_golden_flows.GOLDEN_DIR.parent == TESTS_DIR
