"""Call-graph construction tests.

The synthetic-tree tests exercise each resolution strategy the graph
builder implements (imports, typed attribute dispatch, dataclass fields,
instantiation, properties, nested defs, module bindings); calls that leave
the scanned tree get no edge.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import build_call_graph, load_module


def graph_of(tmp_path: Path, files: dict[str, str]):
    """Materialise a package tree and build its call graph."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    modules = [load_module(path) for path in sorted(tmp_path.rglob("*.py"))]
    return build_call_graph(modules)


def edges(graph, caller: str) -> set[str]:
    return {site.callee for site in graph.callees(caller)}


class TestDirectResolution:
    def test_local_and_imported_calls_resolve(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": (
                    "def helper():\n"
                    "    return 1\n"
                ),
                "pkg/main.py": (
                    "from .util import helper\n"
                    "def local():\n"
                    "    return 2\n"
                    "def run():\n"
                    "    return helper() + local()\n"
                ),
            },
        )
        assert edges(graph, "pkg.main.run") == {"pkg.util.helper", "pkg.main.local"}

    def test_module_attribute_call_resolves(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/main.py": (
                    "from . import util\n"
                    "def run():\n"
                    "    return util.helper()\n"
                ),
            },
        )
        assert edges(graph, "pkg.main.run") == {"pkg.util.helper"}

    def test_stdlib_calls_are_external_not_unresolved(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "import json\n"
                    "def run(payload):\n"
                    "    return json.dumps(sorted(payload))\n"
                ),
            },
        )
        assert "pkg.main.run" in graph.functions
        assert graph.callees("pkg.main.run") == []


class TestTypedDispatch:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/model.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Inner:\n"
            "    def load(self):\n"
            "        return 1\n"
            "@dataclass\n"
            "class Outer:\n"
            "    inner: Inner\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 2\n"
        ),
        "pkg/main.py": (
            "from .model import Outer\n"
            "def run(task: Outer):\n"
            "    return task.inner.load() + task.size\n"
        ),
    }

    def test_field_typed_method_call_resolves(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        assert "pkg.model.Inner.load" in edges(graph, "pkg.main.run")

    def test_property_read_creates_edge(self, tmp_path):
        graph = graph_of(tmp_path, self.FILES)
        sites = {
            (site.callee, site.kind) for site in graph.callees("pkg.main.run")
        }
        assert ("pkg.model.Outer.size", "property") in sites

    def test_instantiation_edges_to_init(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/model.py": (
                    "class Thing:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                ),
                "pkg/main.py": (
                    "from .model import Thing\n"
                    "def run():\n"
                    "    return Thing()\n"
                ),
            },
        )
        sites = {(s.callee, s.kind) for s in graph.callees("pkg.main.run")}
        assert ("pkg.model.Thing.__init__", "instantiate") in sites

    def test_constructor_assignment_types_local(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/model.py": (
                    "class Thing:\n"
                    "    def work(self):\n"
                    "        return 1\n"
                ),
                "pkg/main.py": (
                    "from .model import Thing\n"
                    "def run():\n"
                    "    thing = Thing()\n"
                    "    return thing.work()\n"
                ),
            },
        )
        assert "pkg.model.Thing.work" in edges(graph, "pkg.main.run")

    def test_self_method_call_resolves(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/model.py": (
                    "class Thing:\n"
                    "    def outer(self):\n"
                    "        return self.inner()\n"
                    "    def inner(self):\n"
                    "        return 1\n"
                ),
            },
        )
        assert "pkg.model.Thing.inner" in edges(graph, "pkg.model.Thing.outer")

    def test_base_class_method_resolves(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/model.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 1\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.shared()\n"
                ),
            },
        )
        assert "pkg.model.Base.shared" in edges(graph, "pkg.model.Child.run")


class TestNestingAndReachability:
    def test_nested_def_gets_contains_edge(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        return 1\n"
                    "    return inner\n"
                ),
            },
        )
        sites = {(s.callee, s.kind) for s in graph.callees("pkg.main.outer")}
        assert ("pkg.main.outer.<locals>.inner", "contains") in sites

    def test_reachable_returns_witness_chains(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "def a():\n"
                    "    return b()\n"
                    "def b():\n"
                    "    return c()\n"
                    "def c():\n"
                    "    return 1\n"
                    "def unrelated():\n"
                    "    return 2\n"
                ),
            },
        )
        chains = graph.reachable(["pkg.main.a"])
        assert chains["pkg.main.c"] == ("pkg.main.a", "pkg.main.b", "pkg.main.c")
        assert "pkg.main.unrelated" not in chains

    def test_unknown_entry_point_is_absent(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/main.py": "def a():\n    return 1\n"},
        )
        assert graph.reachable(["pkg.main.missing"]) == {}


class TestModuleBindings:
    def test_module_level_constructor_binding_recorded(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/main.py": (
                    "import threading\n"
                    "LOCK = threading.Lock()\n"
                ),
            },
        )
        binding = graph.module_bindings["pkg.main.LOCK"]
        assert binding.value_call == "threading.Lock"
