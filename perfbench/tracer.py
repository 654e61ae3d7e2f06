"""Span tracer for the benchmark's traced runs.

The traced run wraps the public entry points of each layer module from
the benchmark's own files; nothing under ``src/`` changes.  Two kinds of
wrapper exist:

* **Span wrappers** record one span per call (timer name, start, end,
  parent span, process id) at a layer boundary.  Spans stay in memory and
  are written out once, when the run ends.  A span's *self* time is its
  duration minus the part covered by its child spans.
* **Aggregating wrappers** serve the per-event entry points
  (``Cache.access``, ``Bus.drive``/``drive_bytes``,
  ``CompressionUnit.compress``), which are too hot for one span each.
  They add their count and time to the enclosing span and to a per-layer
  total.  The wrapper's own per-call cost is calibrated once per process
  and subtracted from both.

Functions are wrapped at every binding a caller uses: a module that did
``from x import f`` holds its own reference, so each ``repro.*`` module
attribute that *is* the original function is replaced.  Methods are
replaced on their class.  Wrappers are installed before the timed pass,
so pool workers forked by ``run_sweep`` inherit them; a worker starts its
own timeline at its first task and appends its spans to a file after
every task, because pool workers leave through ``os._exit`` and run no
exit hooks.

Every timestamp comes from :func:`time.perf_counter`, which on Linux is
``CLOCK_MONOTONIC`` and therefore one timeline shared by the parent and
its workers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

CLOCK = time.perf_counter

#: Span entry points: (module, attribute path, timer).  A timer is
#: ``<layer>.<name>``; a layer's self time is the sum over its timers.
#: ``pass`` is the timed pass itself (its self time is glue no layer
#: owns) and ``wait`` is the sweep parent blocked on its pool.
SPAN_ENTRY_POINTS = (
    ("repro.isa.cpu", "CPU.run", "isa.run"),
    ("repro.encoding.selector", "TransformSelector.select", "encoding.select"),
    ("repro.platforms.system", "Platform.run_traces", "platforms.run_traces"),
    ("repro.trace.trace", "Trace.data_accesses", "trace.filter_s"),
    ("repro.trace.trace", "Trace.columnar", "trace.columnar_s"),
    ("repro.trace.columnar", "ColumnarTrace.from_trace", "trace.columnar_s"),
    ("repro.trace.profile", "AccessProfile.__init__", "trace.profile_s"),
    ("repro.trace.profile", "reuse_distances", "trace.reuse_s"),
    ("repro.trace.profile", "AccessProfile.affinity_matrix", "trace.affinity_s"),
    ("repro.trace.io", "load_npz", "trace.ingress_s"),
    ("repro.trace.io", "trace_digest", "trace.ingress_s"),
    ("repro.trace.store", "load_store", "trace.store_read_s"),
    ("repro.trace.store", "open_store", "trace.store_read_s"),
    ("repro.trace.columnar", "ColumnarTrace.to_trace", "trace.store_read_s"),
    ("repro.trace.store", "save_store", "trace.store_write_s"),
    ("repro.batch.cache", "ResultCache.pack_trace", "trace.store_write_s"),
    ("repro.core.clustering", "IdentityClustering.build_layout", "core.cluster_s"),
    ("repro.core.clustering", "FrequencyClustering.build_layout", "core.cluster_s"),
    ("repro.core.clustering", "AffinityClustering.build_layout", "core.cluster_s"),
    ("repro.core.clustering", "PhaseAwareClustering.build_layout", "core.cluster_s"),
    ("repro.core.clustering", "RandomClustering.build_layout", "core.cluster_s"),
    ("repro.core.layout", "BlockLayout.remap_trace", "core.remap_s"),
    ("repro.core.layout", "BlockLayout.remap_columnar", "core.remap_s"),
    ("repro.partition.optimal", "OptimalPartitioner.partition", "partition.search_s"),
    ("repro.partition.greedy", "GreedyPartitioner.partition", "partition.search_s"),
    ("repro.partition.greedy", "EvenPartitioner.partition", "partition.search_s"),
    ("repro.partition.evaluate", "simulate_partition", "partition.simulate_s"),
    ("repro.memory.partitioned", "PartitionedMemory.play", "memory.play_s"),
    ("repro.memory.sleep", "simulate_bank_sleep", "memory.sleep_s"),
    ("repro.reconfig.scheduler", "NaiveScheduler.schedule", "reconfig.schedule_s"),
    ("repro.reconfig.scheduler", "EnergyAwareScheduler.schedule", "reconfig.schedule_s"),
    ("repro.batch.runner", "run_sweep", "batch.sweep"),
    ("repro.batch.runner", "_execute_task", "batch.task"),
    ("repro.batch.runner", "run_flow", "batch.flow"),
    ("repro.batch.cache", "ResultCache.load", "batch.cache_io"),
    ("repro.batch.cache", "ResultCache.store", "batch.cache_io"),
    ("repro.batch.flows", "trace_to_application", "batch.app_build_s"),
    ("repro.batch.runner", "wait", "wait.pool"),
)

#: Per-event entry points: (module, attribute path, layer).
AGGREGATED_ENTRY_POINTS = (
    ("repro.cache.cache", "Cache.access", "cache"),
    ("repro.bus.bus", "Bus.drive", "bus"),
    ("repro.bus.bus", "Bus.drive_bytes", "bus"),
    ("repro.compress.unit", "CompressionUnit.compress", "compress"),
)

#: The layers reported, in ledger order.
LAYERS = (
    "isa", "encoding", "platforms", "cache", "bus", "compress", "trace",
    "core", "partition", "memory", "reconfig", "batch",
)

#: Entry points that load a whole trace; under a sweep task each one is a
#: worker trace load (``batch.trace_loads``).
_LOADERS = ("load_store", "load_npz")
_LOAD_LABEL = "load"


class Span:
    """One call at a layer boundary."""

    __slots__ = (
        "id", "parent", "timer", "start", "end", "child", "agg_time",
        "agg_calls", "pid", "error", "label", "nested_agg_time", "nested_agg_calls",
    )

    def __init__(self, span_id, parent, timer, start, pid, label=None):
        self.id = span_id
        self.parent = parent
        self.timer = timer
        self.start = start
        self.end = start
        self.child = 0.0
        # Per-event calls made directly under this span (set on close), and
        # those made under its child spans.
        self.agg_time = 0.0
        self.agg_calls = 0
        self.nested_agg_time = 0.0
        self.nested_agg_calls = 0
        self.pid = pid
        self.error = False
        self.label = label

    def row(self) -> list:
        """JSON-ready form."""
        return [
            self.id, self.parent, self.timer, self.start, self.end, self.child,
            self.agg_time, self.agg_calls, self.pid, self.error, self.label,
        ]

    @classmethod
    def from_row(cls, row) -> "Span":
        """Inverse of :meth:`row`."""
        span = cls(row[0], row[1], row[2], row[3], row[8], row[10])
        span.end, span.child, span.agg_time, span.agg_calls = row[4:8]
        span.error = row[9]
        return span


class Tracer:
    """In-memory span and counter store for one traced run.

    ``spill_dir`` receives one JSONL file per pool worker.  ``costs`` are
    the calibrated per-call costs of the aggregating wrapper, in seconds:
    the part inside its measured interval, the part outside it, and the
    cost of a nested pass-through call.
    """

    def __init__(self, run_id: str, spill_dir: Path, costs=(0.0, 0.0, 0.0)):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.costs = costs
        self.home_pid = os.getpid()
        self.pid = self.home_pid
        self.spans: list = []
        self.stack: list = []
        # layer -> [timed calls, seconds, nested pass-through calls]
        self.agg: dict = {layer: [0, 0.0, 0] for layer in LAYERS}
        # The aggregate slot of the per-event call now running, if any.
        self.agg_active: list = [None]
        self.counts: dict = defaultdict(int)
        self.programs: set = set()
        self.buses: list = []
        self.submits: list = []
        self._next_id = 0
        self._patches: list = []

    # -- spans ----------------------------------------------------------------------

    def open(self, timer: str, label=None) -> Span:
        """Open a span under the innermost open one."""
        parent = self.stack[-1].id if self.stack else None
        calls, seconds = self._agg_totals()
        span = Span(self._next_id, parent, timer, CLOCK(), self.pid, label)
        span.agg_time, span.agg_calls = -seconds, -calls
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        """Close ``span`` and charge its duration to its parent."""
        span.end = CLOCK()
        calls, seconds = self._agg_totals()
        total_time, total_calls = span.agg_time + seconds, span.agg_calls + calls
        span.agg_time = total_time - span.nested_agg_time
        span.agg_calls = total_calls - span.nested_agg_calls
        span.error = error
        while self.stack and self.stack.pop() is not span:
            pass
        if self.stack:
            parent = self.stack[-1]
            parent.child += span.end - span.start
            parent.nested_agg_time += total_time
            parent.nested_agg_calls += total_calls
        self.spans.append(span)

    def _agg_totals(self):
        calls = seconds = 0
        for slot in self.agg.values():
            calls += slot[0]
            seconds += slot[1]
        return calls, seconds

    def enter_worker(self) -> None:
        """Start this (forked) process's own timeline and counters."""
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()
        for slot in self.agg.values():
            slot[:] = [0, 0.0, 0]
        self.agg_active[0] = None
        self.counts.clear()
        self.programs.clear()
        self.buses.clear()
        self.submits.clear()

    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its spill file."""
        record = {
            "pid": self.pid,
            "spans": [span.row() for span in self.spans],
            "agg": self.agg,
            "counts": dict(self.counts),
        }
        path = self.spill_dir / f"worker-{self.pid}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans.clear()
        for slot in self.agg.values():
            slot[:] = [0, 0.0, 0]
        self.counts.clear()

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point at every binding its callers use."""
        for module, path, timer in SPAN_ENTRY_POINTS:
            self._wrap(
                module, path, lambda fn, t=timer, p=path: self._span_wrapper(fn, t, p)
            )
        for module, path, layer in AGGREGATED_ENTRY_POINTS:
            self._wrap(module, path, lambda fn, l=layer: self._aggregate_wrapper(fn, l))
        self._wrap("repro.bus.bus", "Bus.__init__", self._bus_init_wrapper)
        runner = sys.modules["repro.batch.runner"]
        self._patch(runner, "ProcessPoolExecutor", _submit_recorder(self, runner.ProcessPoolExecutor))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, module_name: str, path: str, make) -> None:
        module = sys.modules[module_name]
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                self._patch(owner, attribute, classmethod(make(raw.__func__)))
            else:
                self._patch(owner, attribute, make(raw))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, attribute, wrapped)

    # -- wrappers -------------------------------------------------------------------

    def _span_wrapper(self, fn, timer: str, path: str):
        count = _COUNTERS.get(path)
        is_task = timer == "batch.task"
        load_label = _LOAD_LABEL if path in _LOADERS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = load_label
            if is_task:
                if os.getpid() != tracer.pid:
                    tracer.enter_worker()
                label = args[0].label()
            span = tracer.open(timer, label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, error=True)
                if is_task and tracer.pid != tracer.home_pid:
                    tracer.flush_worker()
                raise
            tracer.close(span)
            if count is not None:
                count(tracer, args, kwargs, result)
            if is_task and tracer.pid != tracer.home_pid:
                tracer.flush_worker()
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, layer: str):
        # The enclosing span learns its share from snapshots of these slots
        # at open and close (see :meth:`open`), keeping this path short.
        slot = self.agg[layer]
        active = self.agg_active
        clock = CLOCK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            running = active[0]
            if running is not None:
                running[2] += 1
                return fn(*args, **kwargs)
            active[0] = slot
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += clock() - start
                slot[0] += 1
                active[0] = None

        return wrapper

    def _bus_init_wrapper(self, fn):
        buses = self.buses

        @functools.wraps(fn)
        def wrapper(bus, *args, **kwargs):
            fn(bus, *args, **kwargs)
            buses.append(bus)

        return wrapper


def _submit_recorder(tracer: Tracer, pool_class):
    """A pool class recording each task's submission time and label."""

    class RecordingPool(pool_class):
        def submit(self, fn, /, *args, **kwargs):
            tracer.submits.append((CLOCK(), args[0].label()))
            return super().submit(fn, *args, **kwargs)

    RecordingPool.__name__ = pool_class.__name__
    RecordingPool.__qualname__ = pool_class.__qualname__
    return RecordingPool


# -- exact counts read at the boundaries ------------------------------------------


def _count_isa(tracer, args, kwargs, result):
    program = result.program
    tracer.counts["isa.runs"] += 1
    tracer.counts["isa.instructions"] += result.instructions_executed
    tracer.programs.add(
        (program.name, tuple(program.text_words), bytes(program.data_bytes))
    )


def _count_encoding(tracer, args, kwargs, result):
    tracer.counts["encoding.words"] += len(args[1] if len(args) > 1 else kwargs["words"])


def _count_platform(tracer, args, kwargs, report):
    counts = tracer.counts
    counts["platforms.runs"] += 1
    counts["platforms.sim_cycles"] += report.cycles
    counts["cache.icache_hits"] += report.icache_stats.hits
    counts["cache.icache_accesses"] += report.icache_stats.accesses
    counts["cache.dcache_hits"] += report.dcache_stats.hits
    counts["cache.dcache_accesses"] += report.dcache_stats.accesses
    if report.unit_stats is not None:
        counts["compress.bytes_in"] += report.unit_stats.bytes_in
        counts["compress.bytes_out"] += report.unit_stats.bytes_out


def _count_columnar(tracer, args, kwargs, result):
    tracer.counts["trace.columnar_events"] += len(result)


def _count_profile(tracer, args, kwargs, result):
    tracer.counts["trace.profile_events"] += args[0].total_accesses


def _count_cluster(tracer, args, kwargs, layout):
    tracer.counts["core.blocks"] += layout.num_blocks


def _count_search(tracer, args, kwargs, result):
    tracer.counts["partition.searches"] += 1


def _count_optimal_search(tracer, args, kwargs, result):
    # The DP fills (cells x cells) segment costs per bank count: n^2 * k.
    _count_search(tracer, args, kwargs, result)
    partitioner = args[0]
    cost_model = args[1] if len(args) > 1 else kwargs["cost_model"]
    cells = min(cost_model.num_blocks, partitioner.max_dp_cells)
    num_banks = args[2] if len(args) > 2 else kwargs.get("num_banks")
    banks = min(num_banks or partitioner.max_banks, cells)
    tracer.counts["partition.dp_cells"] += cells * cells * banks


def _count_play(tracer, args, kwargs, report):
    tracer.counts["memory.events_played"] += report.accesses


def _count_schedule(tracer, args, kwargs, result):
    application = args[1] if len(args) > 1 else kwargs["application"]
    tracer.counts["reconfig.kernels"] += len(application.kernels)


def _count_sweep(tracer, args, kwargs, report):
    counts = tracer.counts
    counts["batch.tasks"] += len(report.outcomes)
    counts["batch.executed"] += report.misses
    counts["batch.cache_hits"] += report.hits
    counts["batch.retries"] += report.retries


#: Exact counts read from each entry point's arguments and result, keyed
#: by the entry point's attribute path.
_COUNTERS = {
    "CPU.run": _count_isa,
    "TransformSelector.select": _count_encoding,
    "Platform.run_traces": _count_platform,
    "ColumnarTrace.from_trace": _count_columnar,
    "AccessProfile.__init__": _count_profile,
    **{
        f"{strategy}Clustering.build_layout": _count_cluster
        for strategy in ("Identity", "Frequency", "Affinity", "PhaseAware", "Random")
    },
    "OptimalPartitioner.partition": _count_optimal_search,
    "GreedyPartitioner.partition": _count_search,
    "EvenPartitioner.partition": _count_search,
    "PartitionedMemory.play": _count_play,
    "NaiveScheduler.schedule": _count_schedule,
    "EnergyAwareScheduler.schedule": _count_schedule,
    "run_sweep": _count_sweep,
}


# -- calibration ------------------------------------------------------------------


class _Probe:
    def call(self, value):
        return value


def calibrate(iterations: int = 200_000, repeats: int = 3):
    """Per-call costs of the aggregating wrapper on this host, in seconds.

    Returns ``(inside, outside, nested)``: the wrapper's cost that falls
    inside its measured interval, the rest of a timed call's cost, and the
    cost of a nested pass-through call.  Each is the minimum over
    ``repeats`` loops of ``iterations`` calls, against the same loop over
    the unwrapped method.
    """
    probe = _Probe()
    raw = _Probe.call
    tracer = Tracer("calibration", Path("."))
    wrapped = tracer._aggregate_wrapper(raw, "cache")
    root = tracer.open("pass")
    bare = timed = nested = float("inf")
    inside = float("inf")
    for _ in range(repeats):
        start = CLOCK()
        for index in range(iterations):
            raw(probe, index)
        bare = min(bare, CLOCK() - start)

        slot = tracer.agg["cache"]
        before = slot[1]
        start = CLOCK()
        for index in range(iterations):
            wrapped(probe, index)
        timed = min(timed, CLOCK() - start)
        inside = min(inside, slot[1] - before)

        tracer.agg_active[0] = [0, 0.0, 0]
        start = CLOCK()
        for index in range(iterations):
            wrapped(probe, index)
        nested = min(nested, CLOCK() - start)
        tracer.agg_active[0] = None
    tracer.close(root)
    per_call_bare = bare / iterations
    cost_inside = max(0.0, inside / iterations - per_call_bare)
    cost_total = max(0.0, (timed - bare) / iterations)
    cost_outside = max(0.0, cost_total - cost_inside)
    cost_nested = max(0.0, (nested - bare) / iterations)
    return (cost_inside, cost_outside, cost_nested)


# -- the ledger ----------------------------------------------------------------------


def read_worker_spills(spill_dir: Path) -> list:
    """Every record the pool workers appended, in file order."""
    records = []
    for path in sorted(Path(spill_dir).glob("worker-*.jsonl")):
        with path.open() as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def build_ledger(tracer: Tracer, wall_s: float, workers: list, gauge_s: float = 0.0) -> dict:
    """Per-layer metrics of one traced pass, plus its reconciliation.

    ``wall_s`` is the pass's host time read by the caller's own clock, and
    ``gauge_s`` the part of it the caller spent reading the host's speed.
    Layer self times sum the parent's spans and every worker's spans; the
    reconciliation covers the parent's timeline alone.
    """
    cost_in, cost_out, cost_nested = tracer.costs
    spans = list(tracer.spans)
    agg = {layer: list(slot) for layer, slot in tracer.agg.items()}
    counts = defaultdict(int, tracer.counts)
    for record in workers:
        spans.extend(Span.from_row(row) for row in record["spans"])
        for layer, (calls, seconds, passes) in record["agg"].items():
            agg[layer][0] += calls
            agg[layer][1] += seconds
            agg[layer][2] += passes
        for name, value in record["counts"].items():
            counts[name] += value

    def self_time(span: Span) -> float:
        return (
            span.end - span.start - span.child - span.agg_time
            - span.agg_calls * cost_out
        )

    timer_self: dict = defaultdict(float)
    parent_layer_self: dict = defaultdict(float)
    for span in spans:
        seconds = self_time(span)
        timer_self[span.timer] += seconds
        if span.pid == tracer.home_pid:
            parent_layer_self[span.timer.split(".")[0]] += seconds
    layer_self = {layer: 0.0 for layer in LAYERS}
    for timer, seconds in timer_self.items():
        layer = timer.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    agg_busy = {}
    for layer, (calls, seconds, passes) in agg.items():
        agg_busy[layer] = seconds - calls * cost_in - passes * cost_nested
        layer_self[layer] += agg_busy[layer]
    parent_agg = tracer.agg
    parent_tracer_cost = sum(
        calls * (cost_in + cost_out) + passes * cost_nested
        for calls, _seconds, passes in parent_agg.values()
    )
    for layer, (calls, seconds, passes) in parent_agg.items():
        parent_layer_self[layer] += seconds - calls * cost_in - passes * cost_nested

    unattributed_s = parent_layer_self.pop("pass", 0.0) + parent_tracer_cost - gauge_s
    wait_s = parent_layer_self.pop("wait", 0.0)
    accounted_s = sum(parent_layer_self.values()) + wait_s + gauge_s + unattributed_s

    metrics = {}

    def rate(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    metrics["isa.busy_s"] = layer_self["isa"]
    metrics["isa.runs"] = counts["isa.runs"]
    metrics["isa.distinct_programs"] = len(tracer.programs)
    metrics["isa.instructions"] = counts["isa.instructions"]
    metrics["isa.ns_per_instruction"] = rate(layer_self["isa"], counts["isa.instructions"], 1e9)
    metrics["encoding.busy_s"] = layer_self["encoding"]
    metrics["encoding.words"] = counts["encoding.words"]
    metrics["encoding.ns_per_word"] = rate(layer_self["encoding"], counts["encoding.words"], 1e9)
    metrics["platforms.busy_s"] = layer_self["platforms"]
    metrics["platforms.runs"] = counts["platforms.runs"]
    metrics["platforms.sim_cycles"] = counts["platforms.sim_cycles"]
    metrics["cache.busy_s"] = layer_self["cache"]
    metrics["cache.accesses"] = agg["cache"][0]
    metrics["cache.ns_per_access"] = rate(layer_self["cache"], agg["cache"][0], 1e9)
    metrics["cache.icache_hit_rate"] = rate(counts["cache.icache_hits"], counts["cache.icache_accesses"])
    metrics["cache.dcache_hit_rate"] = rate(counts["cache.dcache_hits"], counts["cache.dcache_accesses"])
    bus_words = sum(bus.stats.words for bus in tracer.buses)
    metrics["bus.busy_s"] = layer_self["bus"]
    metrics["bus.words"] = bus_words
    metrics["bus.ns_per_word"] = rate(layer_self["bus"], bus_words, 1e9)
    metrics["bus.transitions"] = sum(bus.stats.transitions for bus in tracer.buses)
    metrics["compress.busy_s"] = layer_self["compress"]
    metrics["compress.lines"] = agg["compress"][0]
    metrics["compress.mean_ratio"] = rate(counts["compress.bytes_out"], counts["compress.bytes_in"])
    for name in (
        "filter_s", "columnar_s", "profile_s", "reuse_s", "affinity_s",
        "ingress_s", "store_read_s", "store_write_s",
    ):
        metrics[f"trace.{name}"] = timer_self[f"trace.{name}"]
    metrics["trace.columnar_events"] = counts["trace.columnar_events"]
    metrics["trace.profile_events"] = counts["trace.profile_events"]
    metrics["core.cluster_s"] = timer_self["core.cluster_s"]
    metrics["core.remap_s"] = timer_self["core.remap_s"]
    metrics["core.blocks"] = counts["core.blocks"]
    metrics["partition.search_s"] = timer_self["partition.search_s"]
    metrics["partition.searches"] = counts["partition.searches"]
    metrics["partition.dp_cells"] = counts["partition.dp_cells"]
    metrics["partition.simulate_s"] = timer_self["partition.simulate_s"]
    metrics["memory.play_s"] = timer_self["memory.play_s"]
    metrics["memory.events_played"] = counts["memory.events_played"]
    metrics["memory.ns_per_event"] = rate(timer_self["memory.play_s"], counts["memory.events_played"], 1e9)
    metrics["memory.sleep_s"] = timer_self["memory.sleep_s"]
    metrics["reconfig.schedule_s"] = timer_self["reconfig.schedule_s"]
    metrics["reconfig.kernels"] = counts["reconfig.kernels"]
    metrics.update(_batch_metrics(tracer, spans, counts, layer_self["batch"], timer_self))
    metrics["tracing.unattributed_frac"] = rate(unattributed_s, wall_s)

    return {
        "metrics": metrics,
        "layer_self_s": layer_self,
        "wall_s": wall_s,
        "parent": {
            "layer_self_s": dict(parent_layer_self),
            "wait_s": wait_s,
            "gauge_s": gauge_s,
            "unattributed_s": unattributed_s,
            "tracer_cost_s": parent_tracer_cost,
            "accounted_s": accounted_s,
            "accounted_frac": rate(accounted_s, wall_s),
        },
        "costs_ns": [cost * 1e9 for cost in tracer.costs],
    }


def _batch_metrics(tracer: Tracer, spans: list, counts, busy_s: float, timer_self) -> dict:
    """The ``batch.*`` view: queueing, utilisation and sweep phases."""
    by_id = {(span.pid, span.id): span for span in spans}
    tasks = [span for span in spans if span.timer == "batch.task"]
    sweeps = sorted(
        (span for span in spans if span.timer == "batch.sweep"),
        key=lambda span: span.start,
    )
    submits = sorted(tracer.submits)

    def under_task(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            owner = by_id.get((span.pid, parent))
            if owner is None:
                return False
            if owner.timer == "batch.task":
                return True
            parent = owner.parent
        return False

    prepare = warm = queue_wait = busy_tasks = pool_span = 0.0
    jobs = 1
    for sweep in sweeps:
        inside = [task for task in tasks if sweep.start <= task.start <= sweep.end]
        sweep_submits = [time for time, _label in submits if sweep.start <= time <= sweep.end]
        first = sweep_submits[0] if sweep_submits else None
        if not inside:
            warm += sweep.end - sweep.start
            prepare += sweep.end - sweep.start
            continue
        first_start = min(task.start for task in inside)
        prepare += (first if first is not None else first_start) - sweep.start
        busy_tasks += sum(task.end - task.start for task in inside)
        pool_span += max(task.end for task in inside) - (first if first is not None else first_start)
        workers = {task.pid for task in inside}
        jobs = max(jobs, len(workers))
        for task in inside:
            waits = [time for time, label in submits if label == task.label and time <= task.start]
            if waits:
                queue_wait += task.start - waits[-1]
    return {
        "batch.tasks": counts["batch.tasks"],
        "batch.executed": counts["batch.executed"],
        "batch.cache_hits": counts["batch.cache_hits"],
        "batch.retries": counts["batch.retries"],
        "batch.failed": sum(1 for task in tasks if task.error),
        "batch.prepare_s": prepare,
        "batch.queue_wait_s": queue_wait,
        "batch.busy_s": busy_s,
        "batch.worker_util": busy_tasks / (jobs * pool_span) if pool_span else 0.0,
        "batch.trace_loads": sum(
            1 for span in spans if span.label == _LOAD_LABEL and under_task(span)
        ),
        "batch.app_build_s": timer_self["batch.app_build_s"],
        "batch.warm_s": warm,
    }
