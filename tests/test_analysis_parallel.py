"""Fire and pragma-suppression fixtures for every PAR rule, plus effects.

Each PAR rule gets (at least) one synthetic tree where it demonstrably
fires and one where the identical violation is pragma-suppressed with a
``# repro: lint-ignore[PAR...]`` comment — proving both halves of the
contract: the analyzer sees the hazard, and a reviewed justification can
sanction it.

The trees declare their own worker entry points via the ``entry_points``
parameter of :func:`repro.analysis.parallel.check_parallel`, so the tests
do not depend on the shipped ``repro.batch`` registry.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import load_module
from repro.analysis.effects import (
    HOLDS_UNPICKLABLE,
    MUTATES_GLOBAL,
    NONDETERMINISTIC,
    SPAWNS,
    WRITES_FS,
    infer_effects,
)
from repro.analysis.callgraph import build_call_graph
from repro.analysis.parallel import WorkerEntryPoint, check_parallel
from repro.analysis.rules import is_suppressed, parse_pragmas

ENTRY = (WorkerEntryPoint("pkg.worker.execute", "test entry point"),)


def modules_of(tmp_path: Path, files: dict[str, str]):
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return [load_module(path) for path in sorted(tmp_path.rglob("*.py"))]


def par_findings(tmp_path, files, **kwargs):
    """Run check_parallel with pragma filtering, as the runner would."""
    modules = modules_of(tmp_path, files)
    kwargs.setdefault("entry_points", ENTRY)
    findings = []
    pragma_maps = {
        str(module.path): parse_pragmas(module.lines) for module in modules
    }
    for finding in check_parallel(modules, **kwargs):
        if not is_suppressed(finding, pragma_maps.get(finding.path, {})):
            findings.append(finding)
    return findings


def rules_fired(findings):
    return {finding.rule for finding in findings}


class TestPAR001GlobalMutation:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/state.py": (
            "CACHE = {}\n"
            "def remember(key, value):\n"
            "    CACHE[key] = value\n"
        ),
        "pkg/worker.py": (
            "from .state import remember\n"
            "def execute(task):\n"
            "    remember(task, 1)\n"
        ),
    }

    def test_fires_on_worker_reachable_mutation(self, tmp_path):
        findings = par_findings(tmp_path, self.FILES)
        assert rules_fired(findings) == {"PAR001"}
        [finding] = findings
        assert "pkg.state.remember" in finding.message
        assert "pkg.worker.execute -> pkg.state.remember" in finding.message

    def test_pragma_suppresses(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/state.py"] = (
            "CACHE = {}\n"
            "def remember(key, value):\n"
            "    CACHE[key] = value  # repro: lint-ignore[PAR001]\n"
        )
        assert par_findings(tmp_path, files) == []

    def test_unreachable_mutation_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/worker.py"] = "def execute(task):\n    return task\n"
        assert par_findings(tmp_path, files) == []

    def test_global_statement_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "COUNT = 0\n"
                "def execute(task):\n"
                "    global COUNT\n"
                "    COUNT = COUNT + 1\n"
            ),
        }
        assert rules_fired(par_findings(tmp_path, files)) == {"PAR001"}

    def test_mutating_method_on_module_binding_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "SEEN = []\n"
                "def execute(task):\n"
                "    SEEN.append(task)\n"
            ),
        }
        assert rules_fired(par_findings(tmp_path, files)) == {"PAR001"}

    def test_local_shadow_is_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "SEEN = []\n"
                "def execute(task):\n"
                "    SEEN = []\n"
                "    SEEN.append(task)\n"
                "    return SEEN\n"
            ),
        }
        assert par_findings(tmp_path, files) == []


class TestPAR002UnpicklableCapture:
    def test_callable_field_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/spec.py": (
                "from dataclasses import dataclass\n"
                "from typing import Callable\n"
                "@dataclass\n"
                "class Task:\n"
                "    name: str\n"
                "    hook: Callable\n"
            ),
            "pkg/worker.py": "def execute(task):\n    return task\n",
        }
        findings = par_findings(
            tmp_path, files, boundary_types=("pkg.spec.Task",)
        )
        assert rules_fired(findings) == {"PAR002"}
        [finding] = findings
        assert "hook" in finding.message and "Callable" in finding.message

    def test_pragma_suppresses(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/spec.py": (
                "from dataclasses import dataclass\n"
                "from typing import Callable\n"
                "@dataclass\n"
                "class Task:\n"
                "    name: str\n"
                "    hook: Callable  # repro: lint-ignore[PAR002]\n"
            ),
            "pkg/worker.py": "def execute(task):\n    return task\n",
        }
        findings = par_findings(
            tmp_path, files, boundary_types=("pkg.spec.Task",)
        )
        assert findings == []

    def test_nested_boundary_type_is_checked(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/spec.py": (
                "from dataclasses import dataclass\n"
                "from typing import IO\n"
                "@dataclass\n"
                "class Inner:\n"
                "    handle: IO\n"
                "@dataclass\n"
                "class Task:\n"
                "    inner: Inner\n"
            ),
            "pkg/worker.py": "def execute(task):\n    return task\n",
        }
        findings = par_findings(
            tmp_path, files, boundary_types=("pkg.spec.Task",)
        )
        assert rules_fired(findings) == {"PAR002"}
        assert any("Inner.handle" in f.message for f in findings)

    def test_unpicklable_instance_state_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/spec.py": (
                "import threading\n"
                "class Task:\n"
                "    def __init__(self):\n"
                "        self.lock = threading.Lock()\n"
            ),
            "pkg/worker.py": "def execute(task):\n    return task\n",
        }
        findings = par_findings(
            tmp_path, files, boundary_types=("pkg.spec.Task",)
        )
        assert rules_fired(findings) == {"PAR002"}

    def test_plain_data_fields_are_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/spec.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Task:\n"
                "    name: str\n"
                "    params: tuple\n"
                "    weight: float\n"
            ),
            "pkg/worker.py": "def execute(task):\n    return task\n",
        }
        assert par_findings(tmp_path, files, boundary_types=("pkg.spec.Task",)) == []


class TestPAR003ForkUnsafe:
    def test_prefork_lock_use_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "import threading\n"
                "LOCK = threading.Lock()\n"
                "def execute(task):\n"
                "    with LOCK:\n"
                "        return task\n"
            ),
        }
        findings = par_findings(tmp_path, files)
        assert rules_fired(findings) == {"PAR003"}
        [finding] = findings
        assert "threading.Lock" in finding.message
        assert "pre-fork" in finding.message

    def test_prefork_lock_pragma_suppresses(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "import threading\n"
                "LOCK = threading.Lock()\n"
                "def execute(task):\n"
                "    with LOCK:  # repro: lint-ignore[PAR003]\n"
                "        return task\n"
            ),
        }
        assert par_findings(tmp_path, files) == []

    def test_worker_spawning_pool_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "from concurrent.futures import ThreadPoolExecutor\n"
                "def execute(task):\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        return pool.submit(sorted, task)\n"
            ),
        }
        findings = par_findings(tmp_path, files)
        assert rules_fired(findings) == {"PAR003"}
        assert any("ThreadPoolExecutor" in f.message for f in findings)

    def test_worker_fs_write_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "from pathlib import Path\n"
                "def execute(task):\n"
                "    Path('out.json').write_text(task)\n"
            ),
        }
        findings = par_findings(tmp_path, files)
        assert rules_fired(findings) == {"PAR003"}

    def test_sanctioned_module_fs_write_is_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/cache.py": (
                "from pathlib import Path\n"
                "def store(task):\n"
                "    Path('blob').write_text(task)\n"
            ),
            "pkg/worker.py": (
                "from .cache import store\n"
                "def execute(task):\n"
                "    store(task)\n"
            ),
        }
        modules = modules_of(tmp_path, files)
        findings = [
            f
            for f in check_parallel(modules, entry_points=ENTRY)
            if f.rule == "PAR003"
        ]
        assert findings, "unsanctioned write should fire"
        from repro.analysis import parallel

        sanctioned = parallel.SANCTIONED_FS_MODULES | {"pkg.cache"}
        original = parallel.SANCTIONED_FS_MODULES
        parallel.SANCTIONED_FS_MODULES = sanctioned
        try:
            findings = [
                f
                for f in check_parallel(modules, entry_points=ENTRY)
                if f.rule == "PAR003"
            ]
        finally:
            parallel.SANCTIONED_FS_MODULES = original
        assert findings == []


class TestPAR004WorkerNondeterminism:
    def test_interprocedural_det_fact_fires(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "pkg/worker.py": (
                "from .clock import stamp\n"
                "def execute(task):\n"
                "    return stamp()\n"
            ),
        }
        findings = par_findings(tmp_path, files)
        assert "PAR004" in rules_fired(findings)
        par004 = [f for f in findings if f.rule == "PAR004"]
        assert any("DET001" in f.message for f in par004)

    def test_par_pragma_suppresses_but_det_remains(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: lint-ignore[PAR004]\n"
            ),
            "pkg/worker.py": (
                "from .clock import stamp\n"
                "def execute(task):\n"
                "    return stamp()\n"
            ),
        }
        assert par_findings(tmp_path, files) == []

    def test_det_sanctioned_site_does_not_poison_workers(self, tmp_path):
        # A DET-pragma'd site is a *reviewed* clock read; the effect stops
        # there instead of propagating PAR004 to every transitive caller.
        files = {
            "pkg/__init__.py": "",
            "pkg/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # repro: lint-ignore[DET001]\n"
            ),
            "pkg/worker.py": (
                "from .clock import stamp\n"
                "def execute(task):\n"
                "    return stamp()\n"
            ),
        }
        assert par_findings(tmp_path, files) == []

    def test_file_level_det_pragma_does_not_poison_workers(self, tmp_path):
        # A DET pragma on line 1 sanctions the whole file, so the PAR004 that
        # would anchor at the clock read (line 4) is never derived.
        files = {
            "pkg/__init__.py": "",
            "pkg/clock.py": (
                "# repro: lint-ignore[DET001]\n"
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "pkg/worker.py": (
                "from .clock import stamp\n"
                "def execute(task):\n"
                "    return stamp()\n"
            ),
        }
        assert par_findings(tmp_path, files) == []

    def test_entropy_fact_fires_par004(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "import os\n"
                "def execute(task):\n"
                "    return os.urandom(8)\n"
            ),
        }
        findings = par_findings(tmp_path, files)
        par004 = [f for f in findings if f.rule == "PAR004"]
        assert par004 and any("DET004" in f.message for f in par004)


class TestPAR005UndeclaredCounter:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/counters.py": (
            'TASKS = "batch.tasks"\n'
            'RETRIES = "batch.retries"\n'
        ),
        "pkg/worker.py": (
            "def execute(task, recorder):\n"
            '    recorder.counter("batch.tasks", 1)\n'
            '    recorder.counter("batch.oops", 1)\n'
        ),
    }

    def test_undeclared_literal_fires(self, tmp_path):
        findings = par_findings(
            tmp_path, self.FILES, counters_module="pkg.counters"
        )
        assert rules_fired(findings) == {"PAR005"}
        [finding] = findings
        assert "batch.oops" in finding.message

    def test_pragma_suppresses(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/worker.py"] = (
            "def execute(task, recorder):\n"
            '    recorder.counter("batch.tasks", 1)\n'
            '    recorder.counter("batch.oops", 1)  # repro: lint-ignore[PAR005]\n'
        )
        assert par_findings(tmp_path, files, counters_module="pkg.counters") == []

    def test_declared_constant_reference_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/worker.py"] = (
            "from . import counters\n"
            "def execute(task, recorder):\n"
            "    recorder.counter(counters.TASKS, 1)\n"
        )
        assert par_findings(tmp_path, files, counters_module="pkg.counters") == []

    def test_dynamic_counter_name_fires(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/worker.py"] = (
            "def execute(task, recorder):\n"
            '    recorder.counter("batch." + task, 1)\n'
        )
        findings = par_findings(tmp_path, files, counters_module="pkg.counters")
        assert rules_fired(findings) == {"PAR005"}
        assert "dynamically computed" in findings[0].message

    def test_missing_vocabulary_module_only_flags_dynamic(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/worker.py": (
                "def execute(task, recorder):\n"
                '    recorder.counter("batch.tasks", 1)\n'
                '    recorder.counter("x" + task, 1)\n'
            ),
        }
        findings = par_findings(tmp_path, files, counters_module="pkg.absent")
        assert len(findings) == 1
        assert "dynamically computed" in findings[0].message


class TestEffectInference:
    def test_direct_effects_detected(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "import subprocess\n"
                    "import os\n"
                    "import time\n"
                    "STATE = {}\n"
                    "def spawns():\n"
                    "    subprocess.run(['ls'])\n"
                    "def writes():\n"
                    "    os.remove('x')\n"
                    "def mutates():\n"
                    "    STATE['k'] = 1\n"
                    "def ticks():\n"
                    "    return time.time()\n"
                ),
            },
        )
        graph = build_call_graph(modules)
        summary = infer_effects(graph, modules)
        assert SPAWNS in summary.direct["pkg.main.spawns"]
        assert WRITES_FS in summary.direct["pkg.main.writes"]
        assert MUTATES_GLOBAL in summary.direct["pkg.main.mutates"]
        assert NONDETERMINISTIC in summary.direct["pkg.main.ticks"]

    def test_effects_propagate_to_fixpoint_with_chain(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "import os\n"
                    "def a():\n"
                    "    return b()\n"
                    "def b():\n"
                    "    return c()\n"
                    "def c():\n"
                    "    os.remove('x')\n"
                ),
            },
        )
        graph = build_call_graph(modules)
        summary = infer_effects(graph, modules)
        site, chain = summary.effects_of("pkg.main.a")[WRITES_FS]
        assert site.origin == "pkg.main.c"
        assert chain == ("pkg.main.a", "pkg.main.b", "pkg.main.c")

    def test_multiple_sites_per_effect_all_recorded(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "from pathlib import Path\n"
                    "def writes(p: Path):\n"
                    "    p.mkdir()\n"
                    "    p.touch()\n"
                ),
            },
        )
        graph = build_call_graph(modules)
        summary = infer_effects(graph, modules)
        sites = summary.direct["pkg.main.writes"][WRITES_FS]
        assert [site.line for site in sites] == [3, 4]

    def test_open_write_mode_detected_read_mode_clean(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "def writer(p):\n"
                    "    with open(p, 'w') as fh:\n"
                    "        fh.write('x')\n"
                    "def reader(p):\n"
                    "    with open(p) as fh:\n"
                    "        return fh.read()\n"
                ),
            },
        )
        graph = build_call_graph(modules)
        summary = infer_effects(graph, modules)
        assert WRITES_FS in summary.direct.get("pkg.main.writer", {})
        assert WRITES_FS not in summary.direct.get("pkg.main.reader", {})

    def test_unpicklable_self_state_detected(self, tmp_path):
        modules = modules_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "import threading\n"
                    "class Holder:\n"
                    "    def __init__(self):\n"
                    "        self.lock = threading.Lock()\n"
                ),
            },
        )
        graph = build_call_graph(modules)
        summary = infer_effects(graph, modules)
        assert HOLDS_UNPICKLABLE in summary.direct["pkg.main.Holder.__init__"]


class TestShippedRegistry:
    def test_shipped_package_par_baseline_is_zero(self):
        from repro.analysis import run_lint

        report = run_lint(select=["PAR"])
        assert report.clean, report.render_text()

    def test_entry_points_exist_in_shipped_package(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        modules = [load_module(path) for path in sorted(src.rglob("*.py"))]
        graph = build_call_graph(modules)
        from repro.analysis.parallel import WORKER_ENTRY_POINTS

        for entry in WORKER_ENTRY_POINTS:
            assert entry.qualname in graph.functions, (
                f"worker entry point {entry.qualname} no longer exists; "
                f"update WORKER_ENTRY_POINTS"
            )
