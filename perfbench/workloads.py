"""The benchmark's three workloads: inputs from a seed, one timed pass.

Every workload runs closed loop: one client issues the next operation only
after the previous one completes.  ``store_sweep`` alone uses more than
one process, when ``run_sweep`` fans its tasks over ``min(2, nproc)`` pool
workers.

Seeds: workload seed ``s`` adds ``SEED_STRIDE * s`` to every input seed the
mirrored ``benchmarks/test_e*.py`` experiment uses, so seed 0 regenerates
exactly the inputs of those tables.  The ISS kernels of ``e1_flow`` keep
their bundled data, as in the E1 table.

Each workload object is built from ``(seed, workdir, smoke)``, prepares its
inputs in :meth:`setup` (timed per phase, outside the pass) and runs the
timed pass in :meth:`run`, which records every operation's canonical
simulated outputs in an :class:`Outcomes`.  ``smoke`` selects a reduced
size whose operations are a subset of the full size's (same names, same
outputs), except on ``store_sweep``, whose smoke traces are shorter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import os
import time
from pathlib import Path

#: Workload seed stride: input seed = mirrored default seed + stride * seed.
SEED_STRIDE = 1000

#: The speed gauge's reference loop length, and the loop's host time at the
#: nominal speed that scaled times are expressed in.
GAUGE_ITERATIONS = 40_000
GAUGE_NOMINAL_S = 0.015


def reference_loop(iterations: int = GAUGE_ITERATIONS) -> int:
    """Fixed interpreter-bound work (dict, tuple and list traffic)."""
    table: dict = {}
    recent: list = []
    total = 0
    for index in range(iterations):
        key = (index * 2654435761) & 0xFFF
        total += table.get(key, 0) ^ index
        table[key] = total & 0xFFFF
        if not index & 7:
            recent.append((key, total))
            if len(recent) > 64:
                recent.pop(0)
    return total


class Gauge:
    """Reads the host's speed between operations, to scale their host time.

    A shared host's speed drifts (frequency boost, neighbours) by up to 2x
    within seconds, and an interpreter-bound pass slows in proportion.  The
    gauge times :func:`reference_loop` once before the first operation and
    once after each operation; an operation's *scaled* time is its host time
    times ``GAUGE_NOMINAL_S`` over the mean of the two readings around it --
    its host time at the nominal speed.  ``spent_s`` is the gauge's own
    host time.
    """

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.last_s = self.read()

    def read(self) -> float:
        """Host time of one reference loop now."""
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.spent_s += elapsed
        return elapsed

    def scale(self, host_s: float) -> float:
        """``host_s`` (just measured) at the nominal speed."""
        after = self.read()
        factor = GAUGE_NOMINAL_S / ((self.last_s + after) / 2)
        self.last_s = after
        return host_s * factor


@contextlib.contextmanager
def phase(timings: dict, name: str):
    """Add the host time of the ``with`` body to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


class Outcomes:
    """Every operation's outcome in one timed pass, in issue order.

    An operation that raises is recorded under :attr:`errors` and the pass
    goes on; the output check later adds mismatches.  ``events`` counts the
    simulated events the operations consumed (see ``sim_events_per_s``).
    ``host_s`` sums the operations' host time and ``scaled_s`` the same
    times at the gauge's nominal speed.
    """

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.outputs: dict = {}
        self.errors: dict = {}
        self.events = 0
        self.sweeps: dict = {}
        self.host_s = 0.0
        self.scaled_s = 0.0

    @contextlib.contextmanager
    def timed(self):
        """Count the ``with`` body as operation time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.host_s += elapsed
            self.scaled_s += self.gauge.scale(elapsed)

    def run(self, name: str, operation, *args) -> None:
        """Run one operation; it returns ``(canonical output, events)``."""
        try:
            with self.timed():
                output, events = operation(*args)
        except Exception as error:  # noqa: BLE001 - a failed operation is data
            self.errors[name] = f"{type(error).__name__}: {error}"
            return
        self.outputs[name] = output
        self.events += events


def _seeded(builder, workload_seed: int, **kwargs):
    """Call an ISS program builder with its data seed shifted by the workload seed."""
    base = kwargs.pop("seed", inspect.signature(builder).parameters["seed"].default)
    return builder(seed=base + SEED_STRIDE * workload_seed, **kwargs)


# -- iss_platform ---------------------------------------------------------------------


class IssPlatform:
    """E2's platform table, then E3's encoder grid (ISS-bound)."""

    name = "iss_platform"
    #: E2 media kernels (builder name, arguments), as in
    #: ``benchmarks/test_e2_data_compression.py``.
    E2_PROGRAMS = (
        ("build_idct_rows", {"rows": 128}),
        ("build_saxpy", {"n": 1024}),
        ("build_fir", {"n": 1024, "taps": 16}),
        ("build_idct_rows", {"rows": 256, "seed": 7}),
    )
    #: E3 DSP kernels, as in ``benchmarks/test_e3_instruction_encoding.py``.
    E3_KERNELS = ("fir", "dot_product", "matmul", "idct_rows", "crc32", "saxpy", "histogram")
    SMOKE_E2 = 2
    SMOKE_E3 = ("dot_product", "crc32")

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, timings: dict) -> None:
        """Assemble the seeded E2 and E3 programs."""
        from repro.isa import programs

        e2 = self.E2_PROGRAMS[: self.SMOKE_E2] if self.smoke else self.E2_PROGRAMS
        e3 = self.SMOKE_E3 if self.smoke else self.E3_KERNELS
        with phase(timings, "gen"):
            self.e2_programs = [
                _seeded(getattr(programs, builder), self.seed, **dict(arguments))
                for builder, arguments in e2
            ]
            self.e3_programs = [
                (kernel, _seeded(getattr(programs, f"build_{kernel}"), self.seed))
                for kernel in e3
            ]

    def run(self, outcomes: Outcomes) -> None:
        """The timed pass: 16 platform runs, then 7 transform selections."""
        from repro.encoding import TransformSelector
        from repro.platforms import risc_platform, vliw_platform

        for platform, make in (("vliw", vliw_platform), ("risc", risc_platform)):
            for program in self.e2_programs:
                for codec in ("base", "differential"):
                    outcomes.run(
                        f"e2/{platform}/{program.name}/{codec}",
                        _platform_run, make, program, codec,
                    )
        selector = TransformSelector(width=32, train_fraction=0.5)
        for kernel, program in self.e3_programs:
            outcomes.run(f"e3/{kernel}", _select, selector, program)


def _platform_run(make, program, codec: str):
    from repro.compress import DifferentialCodec

    report = make(DifferentialCodec() if codec == "differential" else None).run_program(program)
    output = {
        "energy_pj": dict(report.breakdown.as_dict()),
        "total_pj": report.breakdown.total,
        "cycles": report.cycles,
        "decompression_cycles": report.decompression_cycles,
        "bytes_to_memory": report.bytes_to_memory,
        "bytes_from_memory": report.bytes_from_memory,
        "icache": dataclasses.asdict(report.icache_stats),
        "dcache": dataclasses.asdict(report.dcache_stats),
        "unit": dataclasses.asdict(report.unit_stats) if report.unit_stats else None,
    }
    # Every retired instruction is fetched through the I-cache exactly once.
    return output, report.icache_stats.accesses


def _select(selector, program):
    from repro.isa import CPU

    result = CPU().run(program)
    words = [event.value for event in result.instruction_trace]
    selection = selector.select(words)
    output = {
        "instructions": result.instructions_executed,
        "best": selection.best_report.encoder_name,
        "raw_transitions": selection.best_report.raw_transitions,
        "transitions": {
            report.encoder_name: report.total_transitions for report in selection.scoreboard
        },
        "reduction": {
            report.encoder_name: report.reduction for report in selection.scoreboard
        },
    }
    return output, result.instructions_executed


# -- e1_flow ----------------------------------------------------------------------------


class E1Flow:
    """The E1 application table through the clustering flow (DP-bound)."""

    name = "e1_flow"
    #: (application, kernel or ScatteredHotGenerator arguments, block size,
    #: bank budget), as in ``benchmarks/test_e1_address_clustering.py``.
    SUITE = (
        ("aos_field_sum", "aos_field_sum", 8, 4),
        ("table_lookup", "table_lookup", 16, 4),
        ("matmul", "matmul", 32, 4),
        ("fir", "fir", 32, 4),
        ("app_frag_small", (400, 40, 20.0, 25000, 5), 32, 4),
        ("app_frag_medium", (400, 20, 60.0, 25000, 6), 32, 4),
        ("app_frag_sharp", (500, 12, 200.0, 25000, 7), 32, 4),
        ("app_frag_wide", (300, 30, 40.0, 25000, 8), 32, 4),
        ("app_frag_huge", (600, 10, 400.0, 30000, 9), 32, 4),
        ("app_tight_banks", (2000, 16, 800.0, 30000, 13), 32, 2),
    )
    SMOKE = ("aos_field_sum", "app_frag_small", "app_tight_banks")

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self, timings: dict) -> None:
        """Capture the ISS kernel traces and generate the seeded apps."""
        from repro.core import trace_from_kernel
        from repro.trace import ScatteredHotGenerator

        self.apps = []
        for label, source, block_size, max_banks in self.SUITE:
            if self.smoke and label not in self.SMOKE:
                continue
            if isinstance(source, str):
                with phase(timings, "iss"):
                    trace = trace_from_kernel(source)
            else:
                *shape, base_seed = source
                with phase(timings, "gen"):
                    trace = ScatteredHotGenerator(
                        *shape, seed=base_seed + SEED_STRIDE * self.seed
                    ).generate()
            self.apps.append((label, trace, block_size, max_banks))

    def run(self, outcomes: Outcomes) -> None:
        """The timed pass: one optimization flow per application."""
        for label, trace, block_size, max_banks in self.apps:
            outcomes.run(f"e1/{label}", _flow, trace, block_size, max_banks)


def _flow(trace, block_size: int, max_banks: int):
    from repro.core import FlowConfig, MemoryOptimizationFlow

    config = FlowConfig(block_size=block_size, max_banks=max_banks, strategy="affinity")
    result = MemoryOptimizationFlow(config).run(trace)
    return result.to_dict(), len(trace)


# -- store_sweep ------------------------------------------------------------------------


class StoreSweep:
    """Out-of-core design-space exploration over packed traces."""

    name = "store_sweep"
    #: (trace key, generator, arguments, base seed, smoke events); the
    #: ``events`` argument is the full-size length.
    TRACES = (
        ("big", "MarkovRegionGenerator",
         {"regions": 8, "region_size": 2048, "region_gap": 16384, "accesses": 200_000}, 41, 20_000),
        ("mid", "ScatteredHotGenerator",
         {"num_blocks": 256, "num_hot": 32, "hot_weight": 30.0, "accesses": 100_000}, 42, 10_000),
        ("small", "HotColdGenerator", {"accesses": 50_000}, 43, 5_000),
    )
    #: Sweep grid: E1 at coarse blocks, E4 with both schedulers.
    CONFIGS = (
        ("e1_clustering", {"block_size": 256, "max_banks": 4, "strategy": "affinity"}),
        ("e1_clustering", {"block_size": 512, "max_banks": 4, "strategy": "affinity"}),
        ("e1_clustering", {"block_size": 256, "max_banks": 4, "strategy": "frequency"}),
        ("e4_reconfig", {"scheduler": "energy"}),
        ("e4_reconfig", {"scheduler": "naive"}),
    )
    SMOKE_CONFIGS = (0, 3)
    STREAM_CONFIG = {"block_size": 32, "max_banks": 4, "strategy": "affinity"}
    SLEEP_TIMEOUT_CYCLES = 200

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.jobs = min(2, os.cpu_count() or 1)

    def setup(self, timings: dict) -> None:
        """Generate the seeded traces; pack two into stores, save one as .npz."""
        from repro import trace as trace_package
        from repro.batch import ResultCache, SweepTask, TraceSpec
        from repro.trace.io import save_npz
        from repro.trace.store import save_store

        self.paths = {}
        self.events = {}
        for key, generator, arguments, base_seed, smoke_events in self.TRACES:
            arguments = dict(arguments)
            if self.smoke:
                arguments["accesses"] = smoke_events
            with phase(timings, "gen"):
                trace = getattr(trace_package, generator)(
                    **arguments, seed=base_seed + SEED_STRIDE * self.seed
                ).generate()
            self.events[key] = len(trace)
            with phase(timings, "pack"):
                if key == "small":
                    path = self.workdir / f"{key}.npz"
                    save_npz(trace, path)
                    spec = TraceSpec.file(path)
                else:
                    path = save_store(trace, self.workdir / f"{key}.tstore")
                    spec = TraceSpec.store(path)
            self.paths[key] = (path, spec)
            del trace
        configs = [self.CONFIGS[index] for index in self.SMOKE_CONFIGS] if self.smoke else self.CONFIGS
        self.tasks = []
        for key, (_path, spec) in self.paths.items():
            for flow, config in configs:
                name = f"{key}/{flow}/" + ",".join(f"{k}={v}" for k, v in sorted(config.items()))
                self.tasks.append((name, key, SweepTask.make(flow, spec, config)))
        self.cache = ResultCache(self.workdir / "cache")

    def run(self, outcomes: Outcomes) -> None:
        """The timed pass: streamed stage, cold sweep, warm sweep."""
        outcomes.run("stream", self._stream)
        self._sweep(outcomes, "cold")
        self._sweep(outcomes, "warm")

    def _stream(self):
        # Module-attribute calls, so a traced run sees its wrapped bindings.
        from repro.core import FlowConfig, MemoryOptimizationFlow
        from repro.memory import sleep
        from repro.trace import store

        path = self.paths["big"][0]
        flow = MemoryOptimizationFlow(FlowConfig(**self.STREAM_CONFIG)).run(store.open_store(path))
        variant = flow.clustered
        sizes = variant.spec.bank_sizes()
        bases = [sum(sizes[:index]) for index in range(len(sizes))]
        layout_trace = store.open_store(path).data_accesses().map_chunks(
            variant.layout.remap_columnar
        )
        report = sleep.simulate_bank_sleep(
            sizes, bases, layout_trace, sleep.SleepPolicy(timeout_cycles=self.SLEEP_TIMEOUT_CYCLES)
        )
        output = {"flow": flow.to_dict(), "sleep": dataclasses.asdict(report)}
        return output, self.events["big"]

    def _sweep(self, outcomes: Outcomes, phase_name: str) -> None:
        from repro.batch import runner

        try:
            with outcomes.timed():
                report = runner.run_sweep(
                    [task for _name, _key, task in self.tasks], jobs=self.jobs, cache=self.cache
                )
        except Exception as error:  # noqa: BLE001 - every task of the sweep fails
            for name, _key, _task in self.tasks:
                outcomes.errors[f"{phase_name}/{name}"] = f"{type(error).__name__}: {error}"
            return
        for (name, key, _task), outcome in zip(self.tasks, report.outcomes):
            outcomes.outputs[f"{phase_name}/{name}"] = outcome.result
            if not outcome.cached:
                outcomes.events += self.events[key]
        outcomes.sweeps[phase_name] = {
            "hits": report.hits, "misses": report.misses, "retries": report.retries,
        }


WORKLOADS = {workload.name: workload for workload in (IssPlatform, E1Flow, StoreSweep)}
