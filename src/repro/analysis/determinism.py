"""Determinism rules: no wall-clock, no global RNG, seeds are explicit.

ARCHITECTURE.md's determinism policy — "everything is deterministic given
explicit seeds; no module reads wall-clock time or global RNG state" — is what
makes every number in EXPERIMENTS.md reproducible to the digit.  These checks
machine-enforce it:

``DET001``
    Any call that reads the clock (``time.time``, ``time.perf_counter``,
    ``datetime.datetime.now``, ...).
``DET002``
    Any use of interpreter- or process-global RNG state: the ``random``
    module's top-level functions and the legacy ``numpy.random.*``
    distribution functions including ``numpy.random.seed``.
``DET003``
    ``numpy.random.default_rng(...)`` whose argument does not visibly trace
    back to a seed: the call must receive either an integer literal or an
    expression mentioning a name/attribute containing ``seed`` (a ``seed``
    parameter, ``self.seed``, ``config.seed_base + i``, ...).  A bare
    ``default_rng()`` draws OS entropy and is never reproducible.
``DET004``
    Any call that reads OS entropy directly: ``os.urandom``,
    ``uuid.uuid1``/``uuid.uuid4``, the ``secrets`` module.  These are never
    seedable, so unlike DET002 there is no "use a generator instead" fix —
    the value must come from configuration.

Resolution is purely syntactic over the module's own import aliases, through
the call graph's resolver (:func:`repro.analysis.callgraph.module_aliases`):
``import numpy as np`` makes ``np.random.seed`` resolve to
``numpy.random.seed``, so the checks need no imports to run and cannot be
fooled by runtime monkey-patching — by design: the *source* is the contract.
Module-level *assignment* aliases are resolved too: ``now = time.time``
followed by ``now()`` fires DET001 — re-binding a clock does not launder it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import dotted_name, module_aliases
from .rules import Finding, SourceModule

__all__ = ["check_determinism", "ENTROPY_CALLS"]

#: Fully-qualified callables that read the clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that construct *seedable* generators rather
#: than touching the global state; everything else under ``numpy.random``
#: is legacy global-state API.
_NUMPY_SEEDABLE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "MT19937"}
)

#: ``random``-module attributes that are types/state containers, not calls
#: into the shared global instance.
_RANDOM_MODULE_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

#: Fully-qualified callables that read OS entropy directly (DET004).
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
        "random.SystemRandom",
    }
)


def _mentions_seed(node: ast.expr) -> bool:
    """True if the expression visibly derives from a seed or literal."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and "seed" in child.id.lower():
            return True
        if isinstance(child, ast.Attribute) and "seed" in child.attr.lower():
            return True
        if isinstance(child, ast.Constant) and isinstance(child.value, int):
            return True
    return False


def check_determinism(module: SourceModule) -> Iterator[Finding]:
    """Run DET001–DET004 over one module."""
    aliases = module_aliases(module)
    path = str(module.path)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func, aliases)
        if name is None:
            continue
        if name in WALL_CLOCK_CALLS:
            yield Finding(
                path, node.lineno, "DET001", f"call to wall-clock function {name}()"
            )
        elif name in ENTROPY_CALLS or name.startswith("secrets."):
            yield Finding(
                path,
                node.lineno,
                "DET004",
                f"{name}() reads OS entropy and is never reproducible; take "
                f"the value from explicit configuration instead",
            )
        elif name == "numpy.random.default_rng":
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if not arguments:
                yield Finding(
                    path,
                    node.lineno,
                    "DET003",
                    "default_rng() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )
            elif not any(_mentions_seed(argument) for argument in arguments):
                yield Finding(
                    path,
                    node.lineno,
                    "DET003",
                    "default_rng() argument does not trace back to a seed "
                    "parameter, attribute, or literal",
                )
        elif name.startswith("numpy.random.") and name.split(".")[2] not in _NUMPY_SEEDABLE:
            yield Finding(
                path,
                node.lineno,
                "DET002",
                f"{name}() uses numpy's global RNG state; derive a generator "
                f"from numpy.random.default_rng(seed) instead",
            )
        elif name.startswith("random.") and name.split(".")[1] not in _RANDOM_MODULE_OK:
            yield Finding(
                path,
                node.lineno,
                "DET002",
                f"{name}() uses the interpreter-global RNG; use a seeded "
                f"generator instead",
            )
