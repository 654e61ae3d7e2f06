"""Sweep task specifications: picklable descriptions of (trace × flow config).

A batch sweep fans N traces × M flow configurations across worker
processes, so the unit of work must be *describable* rather than held as
live objects: workers reconstruct the trace from a :class:`TraceSpec`
(kernel name, file path, synthetic-generator parameters, or inlined
events) and the flow configuration from a plain mapping.  Everything here
is deterministic — the same spec always loads the same trace — which is
what lets the result cache key on content digests and lets shard
assignment depend only on the task, never on worker timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from ..obs.manifest import config_fingerprint
from ..trace.events import AccessKind, AddressSpace, MemoryAccess
from ..trace.trace import Trace
from .flows import typed_config

__all__ = [
    "GENERATORS",
    "TraceSpec",
    "SweepTask",
    "shard_of",
    "assign_shards",
    "parse_assignments",
    "parse_scalar",
]


def parse_scalar(raw: str):
    """Parse a CLI scalar: int, then float, then bool literal, else string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw in ("true", "True"):
        return True
    if raw in ("false", "False"):
        return False
    return raw


def parse_assignments(text: str) -> dict:
    """Parse ``key=value[,key=value...]``; values go through :func:`parse_scalar`.

    The one parser for ``repro sweep --set`` and ``synth:`` parameters.
    Keys and values are stripped, and empty pairs are skipped; a pair
    without ``=`` raises a ``ValueError`` naming it.
    """
    assignments = {}
    for pair in filter(None, text.split(",")):
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"malformed pair {pair!r}; expected key=value")
        assignments[key.strip()] = parse_scalar(raw.strip())
    return assignments


#: Synthetic-generator registry: spec name → generator class.  Names are
#: part of the spec vocabulary (and therefore of sweep reproducibility), so
#: additions are append-only.
GENERATORS: dict = {}


def _generators() -> dict:
    """Lazily populate :data:`GENERATORS` (avoids import work at module load)."""
    if not GENERATORS:
        from ..trace.synthetic import (
            HotColdGenerator,
            LoopNestGenerator,
            MarkovRegionGenerator,
            ScatteredHotGenerator,
            StridedSweepGenerator,
            ValueTraceGenerator,
        )

        # Idempotent memo fill: every process computes the identical mapping
        # from the same import graph, and it is read-only afterwards — no
        # per-worker divergence is observable.
        GENERATORS.update(  # repro: lint-ignore[PAR001]
            {
                "hot_cold": HotColdGenerator,
                "loop_nest": LoopNestGenerator,
                "markov_region": MarkovRegionGenerator,
                "scattered_hot": ScatteredHotGenerator,
                "strided_sweep": StridedSweepGenerator,
                "value": ValueTraceGenerator,
            }
        )
    return GENERATORS


_KINDS = ("kernel", "file", "synthetic", "inline", "store")


@dataclass(frozen=True)
class TraceSpec:
    """A deterministic, picklable recipe for obtaining one trace.

    Parameters
    ----------
    kind:
        ``"kernel"`` (run a bundled ISS kernel), ``"file"`` (load a saved
        ``.npz``/``.trc`` trace), ``"synthetic"`` (instantiate a registered
        generator), ``"inline"`` (events carried in the spec itself —
        used by property tests sweeping arbitrary traces), or ``"store"``
        (load a packed ``.tstore`` trace-store directory; its header digest
        keys the result cache without materializing any events).
    name:
        Kernel name, file path, generator registry key, inline trace
        name, or store directory path respectively.
    params:
        Sorted ``(key, value)`` pairs: generator constructor arguments for
        ``synthetic``; for ``kernel``, an optional ``("space",
        "instruction")`` selects the fetch trace instead of the data trace.
    events:
        For ``inline`` only: the event stream as plain tuples
        ``(time, address, size, kind, space, value)`` with enum values as
        their one-letter codes.
    """

    kind: str
    name: str
    params: tuple = ()
    events: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown trace-spec kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "inline" and self.events is None:
            raise ValueError(
                f"inline trace spec {self.name!r} must carry an events tuple"
            )

    # -- constructors -------------------------------------------------------------

    @classmethod
    def kernel(cls, name: str, space: str = "data") -> "TraceSpec":
        """Spec for a bundled ISS kernel's data (or instruction) trace."""
        if space not in ("data", "instruction"):
            raise ValueError(
                f"kernel trace space must be 'data' or 'instruction', got {space!r}"
            )
        params = () if space == "data" else (("space", "instruction"),)
        return cls(kind="kernel", name=name, params=params)

    @classmethod
    def file(cls, path: "str | Path") -> "TraceSpec":
        """Spec for a saved ``.npz`` or ``.trc`` trace file."""
        return cls(kind="file", name=str(path))

    @classmethod
    def store(cls, path: "str | Path") -> "TraceSpec":
        """Spec for a packed trace-store directory (``.tstore``)."""
        return cls(kind="store", name=str(path))

    @classmethod
    def synthetic(cls, generator: str, **params) -> "TraceSpec":
        """Spec for a registered synthetic generator with the given arguments.

        Each argument name must be a field of the generator's dataclass, and
        the generator is built once (not run) so that its own checks reject
        a bad value here, naming the generator, the field and the value.
        """
        if generator not in _generators():
            raise ValueError(
                f"unknown generator {generator!r}; registered: "
                f"{sorted(_generators())}"
            )
        accepted = [item.name for item in fields(_generators()[generator])]
        for key in sorted(params):
            if key not in accepted:
                raise ValueError(
                    f"generator {generator!r} has no parameter {key!r}; "
                    f"accepted: {', '.join(accepted)}"
                )
        _generators()[generator](**params)
        return cls(
            kind="synthetic", name=generator, params=tuple(sorted(params.items()))
        )

    @classmethod
    def inline(cls, trace: Trace) -> "TraceSpec":
        """Spec embedding ``trace``'s events directly (for arbitrary traces)."""
        kinds = (AccessKind.READ.value, AccessKind.WRITE.value)
        spaces = (AddressSpace.DATA.value, AddressSpace.INSTRUCTION.value)
        events = tuple(
            (time, address, size, kinds[kind], spaces[space], value)
            for time, address, size, kind, space, value in trace.rows()
        )
        return cls(kind="inline", name=trace.name, events=events)

    @classmethod
    def from_source(cls, source: str) -> "TraceSpec":
        """Resolve a CLI source string into a spec.

        Accepted forms: a ``.npz``/``.trc`` trace file path, a packed
        ``.tstore`` trace-store directory, a bundled kernel name, or
        ``synth:GENERATOR[:key=value,...]`` for a registered synthetic
        generator (parsed by :func:`parse_assignments`).
        """
        if source.startswith("synth:"):
            _, _, rest = source.partition(":")
            name, _, arg_text = rest.partition(":")
            return cls.synthetic(name, **parse_assignments(arg_text))
        path = Path(source)
        if path.suffix == ".tstore" and path.is_dir():
            return cls.store(path)
        if path.suffix in (".npz", ".trc") and path.exists():
            return cls.file(path)
        from ..isa import kernel_names

        if source in kernel_names():
            return cls.kernel(source)
        raise ValueError(
            f"{source!r} is neither an existing trace file, a packed "
            f".tstore store directory, a kernel ({', '.join(kernel_names())}), "
            f"nor a synth: spec"
        )

    # -- accessors ----------------------------------------------------------------

    @property
    def params_dict(self) -> dict:
        """The spec parameters as a plain dict."""
        return dict(self.params)

    def describe(self) -> dict:
        """Deterministic, fingerprintable view of this spec.

        Inline events are summarised by length (their *content* enters the
        cache key through the trace digest, not through the spec).
        """
        description = {"kind": self.kind, "name": self.name, "params": self.params}
        if self.events is not None:
            description["events"] = len(self.events)
        return description

    def load(self) -> Trace:
        """Materialize the trace this spec describes; an invalid one raises.

        A ``.tstore`` loads as the memory-mapped, digest-verified trace of
        :func:`~repro.trace.store.load_store`, and an ``.npz`` as the
        validated one of :func:`~repro.trace.io.load_npz`.
        """
        if self.kind == "kernel":
            from ..isa import CPU, load_kernel

            result = CPU().run(load_kernel(self.name))
            if self.params_dict.get("space") == "instruction":
                return result.instruction_trace
            return result.data_trace
        if self.kind == "file":
            from ..trace.io import load_npz, load_text

            path = Path(self.name)
            if path.suffix == ".npz":
                return load_npz(path)
            return load_text(path)
        if self.kind == "store":
            from ..trace.store import load_store

            # verify=True: a corrupt store must fail loudly here rather
            # than replay wrong events into a flow.
            return load_store(self.name, verify=True)
        if self.kind == "synthetic":
            generator = _generators()[self.name]
            return generator(**self.params_dict).generate()
        events = (
            MemoryAccess(
                time=time,
                address=address,
                size=size,
                kind=AccessKind.from_str(kind),
                space=AddressSpace.from_str(space),
                value=value,
            )
            for time, address, size, kind, space, value in self.events
        )
        try:
            trace = Trace.from_events(events, name=self.name)
            trace.validate()
        except (ValueError, OverflowError) as error:
            raise ValueError(f"inline trace spec {self.name!r}: {error}") from error
        return trace


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a flow applied to a trace under a config.

    ``config`` is stored as sorted ``(key, value)`` pairs so tasks stay
    hashable and their fingerprints stay order-independent; use
    :meth:`make` to build one from a plain mapping.
    """

    flow: str
    trace: TraceSpec
    config: tuple = field(default_factory=tuple)

    @classmethod
    def make(
        cls, flow: str, trace: TraceSpec, config: "Mapping | None" = None
    ) -> "SweepTask":
        """Build a task from a flow name, a trace spec, and a config mapping."""
        pairs = tuple(sorted((config or {}).items()))
        return cls(flow=flow, trace=trace, config=pairs)

    @property
    def config_dict(self) -> dict:
        """The flow configuration as a plain dict."""
        return dict(self.config)

    @property
    def config_hash(self) -> str:
        """Fingerprint of (flow name + typed flow configuration).

        Taken over :func:`~repro.batch.flows.typed_config`, so configs that
        run alike (``train_fraction=1`` and ``train_fraction=1.0``) share
        one hash; a config already in its declared types hashes as its raw
        mapping does.  An invalid config raises ``ValueError``.  This is the
        config half of the result-cache key; the trace half is the content
        digest of the loaded trace (:func:`repro.trace.io.trace_digest`).
        """
        typed = typed_config(self.flow, self.config_dict)
        return config_fingerprint({"flow": self.flow, "config": typed})

    def spec_fingerprint(self) -> str:
        """Fingerprint of the *whole task description* (flow, config, trace spec).

        Unlike the cache key this needs no trace materialization, so shard
        assignment can be computed before any work happens.
        """
        return config_fingerprint(
            {
                "flow": self.flow,
                "config": self.config_dict,
                "trace": self.trace.describe(),
            }
        )

    def label(self) -> str:
        """Short human-readable identifier for tables and span attrs."""
        return f"{self.flow}:{self.trace.name}:{self.config_hash[:8]}"


def shard_of(fingerprint: str, num_shards: int) -> int:
    """Deterministic shard index for a task fingerprint.

    Depends only on the fingerprint and the shard count — never on
    submission order, worker count, or completion timing — so the same
    sweep always produces the same sharding.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return int(fingerprint[:8], 16) % num_shards


def assign_shards(tasks, num_shards: int) -> list:
    """Shard index for every task, in task order."""
    return [shard_of(task.spec_fingerprint(), num_shards) for task in tasks]
