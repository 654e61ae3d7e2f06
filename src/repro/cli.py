"""Command-line interface.

Installs as the ``repro`` console script (see ``pyproject.toml``); every
subcommand is also reachable via ``python -m repro.cli``.

Subcommands
-----------
``kernels``
    List the bundled embedded kernels.
``run KERNEL``
    Execute a kernel on the ISS; print execution statistics; optionally save
    the data trace (``--save-trace out.npz``).
``disasm KERNEL``
    Disassemble a kernel back to assembler text.
``profile SOURCE``
    Print the access-profile summary and the hottest blocks of a trace
    source.  Every SOURCE argument takes the same forms: a kernel name, a
    saved ``.npz``/``.trc`` trace, a ``.tstore`` store or a ``synth:`` spec.
``optimize SOURCE``
    Run the clustering + partitioning flow (E1) and print the three-way
    energy comparison.  ``--obs-out run.jsonl`` records the run (spans,
    counters, manifest) for later ``repro obs`` inspection.
``obs LOG``
    Read a JSONL observability log and print the run manifest, per-stage
    wall-time and energy breakdown, and the exact energy reconciliation
    check.
``compress KERNEL``
    Run a kernel on a platform with and without a compression codec (E2).
``encode KERNEL``
    Print the instruction-bus encoder scoreboard (E3).
``codecomp KERNEL``
    Sweep selective code compression (EX5).
``bist``
    BIST coverage + deterministic top-up demo (EX8).
``phases SOURCE``
    Detect program phases in a trace.
``trace pack SOURCE OUT.tstore``
    Pack any trace source (kernel, file, ``synth:`` spec) into a versioned
    memory-mapped columnar store directory; ``optimize`` and ``sweep``
    consume ``.tstore`` sources by streaming chunks instead of
    materializing the whole trace.
``trace info STORE.tstore``
    Print a store's header (schema version, event count, chunk size,
    content digest, columns); ``--verify`` re-hashes every column.
``sweep SOURCE [SOURCE...]``
    Fan one benchmark flow over traces × configurations through the
    ``repro.batch`` work queue: deterministic sharding, content-addressed
    result caching (``--cache-dir`` / ``--no-cache``), process fan-out
    (``--jobs``), retry with capped backoff, and a merged results table
    (``--format table|json|csv``).
``benchreport RUN.json``
    Render a pytest-benchmark JSON export (plus, optionally, the committed
    baseline and ``repro.obs`` JSONL run logs) into a zero-dependency
    static HTML perf report with inline SVG distribution strips, and
    optionally a machine-readable JSON summary (``--json-out``).
``lint [PATHS]``
    Run the architecture & determinism linter over the package (or the given
    files/directories); exit 1 if there are findings.  ``--select`` narrows
    to rule ids or family prefixes (``PAR``), ``--statistics`` appends
    per-rule and per-family counts, and ``--schemas`` prints the extracted
    persisted-schema report (the ``tests/golden/schemas.json`` pin).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compress import BDICodec, DifferentialCodec, LZWCodec, ZeroRunCodec
from .core import optimize_memory_layout
from .encoding import TransformSelector
from .isa import CPU, disassemble_program, kernel_names, load_kernel
from .platforms import risc_platform, vliw_platform
from .report import bar_chart, histogram, render_table
from .trace import (
    AccessProfile,
    PhaseDetector,
    address_entropy,
    dominant_stride,
    region_stickiness,
    save_npz,
)

__all__ = ["main", "build_parser"]

_CODECS = {
    "differential": DifferentialCodec,
    "zero_run": ZeroRunCodec,
    "lzw": LZWCodec,
    "bdi": BDICodec,
}


def _positive_int(text: str) -> int:
    """Argparse type for counts and sizes: a bad value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: rejected below, like zero
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _load_trace(source: str, stream: bool = False):
    """Load a trace source through :meth:`TraceSpec.from_source`; exit on a bad one.

    ``stream=True`` opens a ``.tstore`` source as a chunked ``StreamedTrace``.
    """
    from .batch.spec import TraceSpec
    from .trace.store import StoreError, open_store

    try:
        spec = TraceSpec.from_source(source)
        if stream and spec.kind == "store":
            return open_store(spec.name)
        return spec.load()
    except StoreError as error:
        raise SystemExit(f"error: {error} (cause: {error.__cause__})")
    except ValueError as error:
        raise SystemExit(f"error: {error}")


# -- subcommand implementations ----------------------------------------------------


def _cmd_kernels(_args) -> int:
    for name in kernel_names():
        program = load_kernel(name)
        print(f"{name:16s} text={program.text_size:6d}B data={program.data_size:6d}B")
    return 0


def _cmd_run(args) -> int:
    program = load_kernel(args.kernel)
    result = CPU().run(program)
    reads, writes = result.data_trace.read_write_counts()
    print(f"kernel:       {program.name}")
    print(f"instructions: {result.instructions_executed}")
    print(f"data reads:   {reads}")
    print(f"data writes:  {writes}")
    print(f"footprint:    {result.data_trace.footprint(32)} blocks of 32 B")
    if args.save_trace:
        save_npz(result.data_trace, args.save_trace)
        print(f"trace saved:  {args.save_trace}")
    return 0


def _cmd_disasm(args) -> int:
    print(disassemble_program(load_kernel(args.kernel)), end="")
    return 0


def _cmd_profile(args) -> int:
    trace = _load_trace(args.source)
    profile = AccessProfile(trace.data_accesses(), block_size=args.block_size)
    summary = profile.summary()
    print(f"trace:             {trace.name}")
    for key, value in summary.items():
        print(f"{key + ':':19s}{value:.3f}")
    data = trace.data_accesses()
    stride, share = dominant_stride(data)
    print(f"dominant stride:   {stride} ({share:.1%} of transitions)")
    print(f"address entropy:   {address_entropy(data, args.block_size):.2f} bits")
    print(f"region stickiness: {region_stickiness(data):.2f}")
    hot = sorted(profile.access_counts().items(), key=lambda kv: -kv[1])[: args.top]
    print()
    if args.chart:
        print(f"hottest {len(hot)} blocks ({args.block_size} B):")
        print(
            bar_chart(
                [(f"{block * args.block_size:#x}", float(count)) for block, count in hot]
            )
        )
        distances = [d for d in profile.reuse_histogram().elements() if d >= 0]
        if distances:
            print("\nreuse-distance distribution:")
            print(histogram(distances, bins=8))
    else:
        print(
            render_table(
                ["block address", "accesses"],
                [[f"{block * args.block_size:#x}", count] for block, count in hot],
                title=f"hottest {len(hot)} blocks ({args.block_size} B)",
            )
        )
    return 0


def _cmd_optimize(args) -> int:
    from .obs import JsonlRecorder, span

    recorder = JsonlRecorder(args.obs_out) if args.obs_out else None
    try:
        with span(recorder, "trace_load", source=args.source):
            # Store-backed sources stream: the flow plays the trace
            # chunk-by-chunk off the mmap'd columns, so peak memory is
            # bounded by the chunk size, not the trace length.
            trace = _load_trace(args.source, stream=True)
        flow = optimize_memory_layout(
            trace,
            recorder=recorder,
            block_size=args.block_size,
            max_banks=args.banks,
            strategy=args.strategy,
        )
    finally:
        if recorder is not None:
            recorder.close()
    rows = [
        ["monolithic", 1, flow.monolithic.simulated.total, "baseline"],
        [
            "partitioned",
            flow.partitioned.spec.num_banks,
            flow.partitioned.simulated.total,
            f"-{flow.partitioning_saving_vs_monolithic:.1%}",
        ],
        [
            "clustered+partitioned",
            flow.clustered.spec.num_banks,
            flow.clustered.simulated.total,
            f"-{flow.saving_vs_monolithic:.1%}",
        ],
    ]
    print(render_table(["organization", "banks", "energy (pJ)", "vs monolithic"], rows))
    print(f"\nclustering saves {flow.saving_vs_partitioned:.1%} vs partitioning alone")
    if args.obs_out:
        print(f"run log written to {args.obs_out} (inspect with: repro obs {args.obs_out})")
    return 0


def _cmd_obs(args) -> int:
    import json

    from .obs import read_log

    try:
        log = read_log(args.log)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}")

    if args.format == "json":
        report = log.to_report()
        print(json.dumps(report, sort_keys=True, indent=1))
        return 0 if report["reconciled"] else 1

    if log.manifest is not None:
        print("run manifest:")
        for key in ("package_version", "python_version", "platform", "config_hash", "seed"):
            value = log.manifest.get(key)
            if value is not None:
                print(f"  {key + ':':17s}{value}")
        for key, value in (log.manifest.get("extra") or {}).items():
            print(f"  {key + ':':17s}{value}")
    else:
        print("run manifest: (none recorded)")

    spans = log.spans()
    if spans:
        print()
        print(
            render_table(
                ["stage", "status", "time (ms)", "attributes"],
                [
                    [
                        "  " * record.depth + record.name,
                        record.status,
                        f"{record.elapsed_seconds * 1e3:.3f}",
                        " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items())),
                    ]
                    for record in spans
                ],
                title="stages",
            )
        )

    energy_rows = log.stage_energy_rows()
    if energy_rows:
        print()
        print(
            render_table(
                ["stage", "component", "energy (pJ)"],
                [[stage, component, f"{value:.3f}"] for stage, component, value in energy_rows],
                title="per-stage energy",
            )
        )

    reconciliation = log.reconcile_energy()
    if reconciliation:
        print()
        print(
            render_table(
                ["stage", "component sum (pJ)", "reported (pJ)", "exact"],
                [
                    [stage, f"{summed:.6f}", f"{reported:.6f}", "yes" if exact else "NO"]
                    for stage, summed, reported, exact in reconciliation
                ],
                title="energy reconciliation",
            )
        )

    if reconciliation and not all(exact for *_rest, exact in reconciliation):
        print("\nerror: per-stage energy counters do not reconcile with reported totals")
        return 1
    return 0


def _cmd_compress(args) -> int:
    make = {"risc": risc_platform, "vliw": vliw_platform}[args.platform]
    program = load_kernel(args.kernel)
    base = make(None).run_program(program)
    codec = _CODECS[args.codec]()
    comp = make(codec).run_program(program)
    rows = [
        ["(none)", base.breakdown.total, base.offchip_bytes, "0.0%"],
        [
            codec.name,
            comp.breakdown.total,
            comp.offchip_bytes,
            f"{comp.breakdown.saving_vs(base.breakdown):.1%}",
        ],
    ]
    print(
        render_table(
            ["codec", "energy (pJ)", "off-chip bytes", "saving"],
            rows,
            title=f"{args.kernel} on {args.platform}",
        )
    )
    return 0


def _cmd_encode(args) -> int:
    result = CPU().run(load_kernel(args.kernel))
    words = [event.value for event in result.instruction_trace]
    selection = TransformSelector(width=32).select(words)
    rows = [
        [
            report.encoder_name,
            report.total_transitions,
            f"{report.reduction:+.1%}",
            "selected" if report is selection.best_report else "",
        ]
        for report in selection.scoreboard
    ]
    print(
        render_table(
            ["encoder", "transitions", "reduction", ""],
            rows,
            title=f"instruction-bus encoders on {args.kernel}",
        )
    )
    return 0


def _cmd_codecomp(args) -> int:
    from .codecomp import SelectiveCodeCompressor

    program = load_kernel(args.kernel)
    compressor = SelectiveCodeCompressor()
    trace, counts = compressor.profile(program)
    rows = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        layout = compressor.build_layout(program, counts, fraction=fraction)
        report = compressor.evaluate(layout, trace)
        rows.append(
            [f"{fraction:.2f}", layout.stored_size,
             f"{report.size_reduction:+.1%}", f"{report.slowdown:+.2%}"]
        )
    print(
        render_table(
            ["fraction", "stored bytes", "size reduction", "slowdown"],
            rows,
            title=f"selective code compression on {args.kernel} "
                  f"({program.text_size} B of code)",
        )
    )
    return 0


def _cmd_bist(args) -> int:
    from .circuit import (
        FaultSimulator,
        enumerate_faults,
        lfsr_patterns,
        top_up_patterns,
        two_tower,
    )

    netlist = two_tower(args.width)
    simulator = FaultSimulator(netlist)
    patterns = lfsr_patterns(netlist.inputs, args.patterns, seed=args.seed)
    checkpoints = sorted({max(1, args.patterns // 64), args.patterns // 8, args.patterns})
    curve = simulator.coverage_curve(patterns, checkpoints)
    print(
        render_table(
            ["LFSR patterns", "coverage"],
            [[count, f"{coverage:.1%}"] for count, coverage in curve],
            title=f"BIST on two_tower({args.width})",
        )
    )
    result = simulator.simulate(patterns)
    residue = [f for f in enumerate_faults(netlist) if f not in result.detected]
    if residue:
        topup = top_up_patterns(netlist, residue, seed=args.seed, max_tries=2000)
        final = simulator.simulate(patterns + topup.patterns)
        print(
            f"\nresidue {len(residue)} faults -> {len(topup.patterns)} stored "
            f"patterns, {len(topup.abandoned)} abandoned, "
            f"final coverage {final.coverage:.1%}"
        )
    else:
        print("\nno residue: pseudo-random patterns suffice")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import run_lint

    if args.schemas:
        return _lint_schemas(args)
    select = None
    if args.select:
        select = [rule for chunk in args.select for rule in chunk.split(",")]
    paths = [Path(p) for p in args.paths] or None
    try:
        report = run_lint(paths, select=select)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    if args.format == "json":
        print(report.to_json(statistics=args.statistics))
    elif args.format == "sarif":
        print(report.to_sarif())
    else:
        print(report.render_text(statistics=args.statistics))
    return 0 if report.clean else 1


def _lint_schemas(args) -> int:
    import json

    from .analysis import load_module, schema_report
    from .analysis.runner import collect_files, default_target

    targets = [Path(p) for p in args.paths] or [default_target()]
    try:
        files = collect_files(targets)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    modules = []
    for file in files:
        try:
            modules.append(load_module(file))
        except SyntaxError:
            continue  # SYN001 territory; the normal lint path reports it
    report = schema_report(modules)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def _obs_report_section(path: Path) -> dict:
    """Pre-parse one obs JSONL log into the report's plain-mapping shape.

    ``repro.benchstats`` is a leaf that must not import ``repro.obs``, so
    the CLI flattens the log into label/stages/energy mappings here.
    """
    from .obs import read_log

    log = read_log(path)
    return {
        "label": str(path),
        "stages": [
            {
                "name": record.name,
                "depth": record.depth,
                "elapsed_seconds": record.elapsed_seconds,
                "status": record.status,
            }
            for record in log.spans()
        ],
        "energy": [tuple(row) for row in log.stage_energy_rows()],
    }


def _cmd_benchreport(args) -> int:
    import json

    from .benchstats import (
        GateConfig,
        build_report_payload,
        evaluate_benchmark,
        extract_run,
        parse_baseline,
        render_html,
    )

    try:
        run = extract_run(json.loads(Path(args.run).read_text()))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"error: cannot read benchmark run {args.run!r}: {error}")
    baseline = None
    comparisons = []
    if args.baseline:
        try:
            baseline = parse_baseline(json.loads(Path(args.baseline).read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise SystemExit(
                f"error: cannot read baseline {args.baseline!r}: {error}"
            )
        config = GateConfig()
        comparisons = [
            evaluate_benchmark(
                name,
                baseline.records[name].samples,
                run.records[name].samples,
                config,
            )
            for name in sorted(baseline.records)
            if name in run.records
        ]
    try:
        obs_sections = [_obs_report_section(path) for path in args.obs or []]
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read obs log: {error}")
    payload = build_report_payload(run, comparisons)
    html_text = render_html(
        payload, baseline=baseline, obs_sections=obs_sections, title=args.title
    )
    out_path = Path(args.out)
    out_path.write_text(html_text, encoding="utf-8")
    print(f"report written to {out_path}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"summary written to {args.json_out}")
    regressed = [
        name
        for name, entry in payload["benchmarks"].items()
        if entry.get("median_regressed") or entry.get("tail_regressed")
    ]
    if regressed:
        print(
            f"note: {len(regressed)} benchmark(s) regressed vs baseline "
            "(the report shows which; the CI verdict belongs to "
            "benchmarks/compare.py)"
        )
    return 0


def _cmd_phases(args) -> int:
    trace = _load_trace(args.source)
    detector = PhaseDetector(
        window=args.window, num_clusters=args.clusters, block_size=args.block_size
    )
    segmentation = detector.detect(trace.data_accesses())
    rows = [
        [index, phase.cluster, phase.start_event, phase.end_event, phase.num_events]
        for index, phase in enumerate(segmentation.phases)
    ]
    print(
        render_table(
            ["#", "cluster", "start", "end", "events"],
            rows,
            title=f"{segmentation.num_phases} phases in {trace.name}",
        )
    )
    return 0


def _cmd_trace_pack(args) -> int:
    import json

    from .trace.store import DEFAULT_CHUNK_EVENTS, STORE_SUFFIX, save_store

    trace = _load_trace(args.source)
    out = Path(args.out)
    if out.suffix != STORE_SUFFIX:
        raise SystemExit(
            f"error: output path {args.out!r} must end in {STORE_SUFFIX}"
        )
    chunk_size = args.chunk_size if args.chunk_size else DEFAULT_CHUNK_EVENTS
    path = save_store(trace, out, chunk_size=chunk_size)
    header = json.loads((path / "header.json").read_text())
    chunks = -(-header["events"] // header["chunk_size"]) if header["events"] else 0
    print(f"packed {header['events']} events from {trace.name!r} into {path}")
    print(f"  chunk_size   {header['chunk_size']} ({chunks} chunks)")
    print(f"  trace_digest {header['trace_digest']}")
    return 0


def _cmd_trace_info(args) -> int:
    from .trace.store import StoreError, read_store_header, verify_store

    try:
        if args.verify:
            header = verify_store(Path(args.store))
        else:
            header = read_store_header(Path(args.store))
    except StoreError as error:
        raise SystemExit(f"error: {error} (cause: {error.__cause__})")
    print(f"store        {args.store}")
    print(f"schema       {header['schema']}")
    print(f"name         {header['name']}")
    print(f"events       {header['events']}")
    print(f"chunk_size   {header['chunk_size']}")
    print(f"trace_digest {header['trace_digest']}")
    print(f"columns      {', '.join(sorted(header['columns']))}")
    if args.verify:
        print("verified     column digests match header")
    return 0


def _cmd_sweep(args) -> int:
    import csv
    import io
    import json

    from .batch import ResultCache, SweepTask, TraceSpec, parse_scalar, run_sweep
    from .obs import JsonlRecorder

    try:
        specs = [TraceSpec.from_source(source) for source in args.sources]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    configs: list[dict] = []
    for assignment in args.set or []:
        config = {}
        for pair in filter(None, assignment.split(",")):
            key, sep, raw = pair.partition("=")
            if not sep:
                print(
                    f"error: malformed --set entry {pair!r}; expected key=value",
                    file=sys.stderr,
                )
                return 2
            config[key.strip()] = parse_scalar(raw.strip())
        configs.append(config)
    if not configs:
        configs = [{}]

    tasks = [
        SweepTask.make(args.flow, spec, config)
        for spec in specs
        for config in configs
    ]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    recorder = JsonlRecorder(args.obs_out) if args.obs_out else None

    progress = None
    if args.progress:

        def progress(event) -> None:
            completed = event.done + event.cached
            eta_text = ""
            if event.done > 0 and completed < event.total:
                eta = (
                    event.elapsed_seconds / event.done * (event.total - completed)
                )
                eta_text = f" eta {eta:.1f}s"
            print(
                f"\r{completed}/{event.total} tasks ({event.done} run, "
                f"{event.cached} cached, {event.failed} failed){eta_text}   ",
                end="",
                file=sys.stderr,
                flush=True,
            )

    try:
        report = run_sweep(
            tasks,
            jobs=args.jobs,
            cache=cache,
            recorder=recorder,
            retries=args.retries,
            shard_dir=args.obs_dir,
            on_event=progress,
        )
    except (RuntimeError, ValueError) as error:
        if args.progress:
            print(file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        cause = error.__cause__
        while cause is not None:
            print(
                f"  caused by: {type(cause).__name__}: {cause}", file=sys.stderr
            )
            cause = cause.__cause__
        return 1
    finally:
        if recorder is not None:
            recorder.close()
    if args.progress:
        print(file=sys.stderr)

    rows = [outcome.row() for outcome in report.outcomes]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "flow": args.flow,
                    "summary": report.summary(),
                    "hits": report.hits,
                    "misses": report.misses,
                    "retries": report.retries,
                    "tasks": rows,
                    "results": report.results,
                },
                sort_keys=True,
                indent=1,
            )
        )
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
        print(buffer.getvalue(), end="")
    else:
        table_rows = [
            [
                row["flow"],
                row["trace"],
                row["config_hash"][:8],
                row["shard"],
                "hit" if row["cached"] else "miss",
                row["attempts"],
                f"{row['elapsed_seconds']:.3f}",
            ]
            for row in rows
        ]
        print(
            render_table(
                ["flow", "trace", "config", "shard", "cache", "attempts", "secs"],
                table_rows,
                title=f"sweep over {len(specs)} traces x {len(configs)} configs",
            )
        )
    print(report.summary(), file=sys.stderr)
    if args.obs_out:
        print(
            f"run log written to {args.obs_out} (inspect with: repro obs {args.obs_out})",
            file=sys.stderr,
        )
    if args.obs_dir:
        print(
            f"worker shards written under {args.obs_dir} (sweep {report.sweep_id}; "
            f"render with: repro timeline {args.obs_dir})",
            file=sys.stderr,
        )
    return 0


def _cmd_timeline(args) -> int:
    import json

    from .benchstats import render_timeline_html
    from .obs import build_timeline_payload, load_merged

    try:
        merged = load_merged(args.run_dir, sweep=args.sweep)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    payload = build_timeline_payload(merged)
    html_text = render_timeline_html(payload, title=args.title)
    out_path = Path(args.out)
    out_path.write_text(html_text, encoding="utf-8")
    print(f"timeline written to {out_path}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"timeline document written to {args.json_out}")
    if not payload["reconciled"]:
        print(
            "error: merged per-stage energy does not reconcile with the "
            "reported task totals",
            file=sys.stderr,
        )
        return 1
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Energy-efficient embedded memory toolkit (DATE 2003)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("kernels", help="list bundled kernels").set_defaults(func=_cmd_kernels)

    run = subparsers.add_parser("run", help="execute a kernel on the ISS")
    run.add_argument("kernel", choices=kernel_names())
    run.add_argument("--save-trace", metavar="OUT.npz", default=None)
    run.set_defaults(func=_cmd_run)

    disasm = subparsers.add_parser("disasm", help="disassemble a kernel")
    disasm.add_argument("kernel", choices=kernel_names())
    disasm.set_defaults(func=_cmd_disasm)

    profile = subparsers.add_parser("profile", help="profile a kernel or trace file")
    profile.add_argument("source")
    profile.add_argument("--block-size", type=_positive_int, default=32)
    profile.add_argument("--top", type=_positive_int, default=10)
    profile.add_argument("--chart", action="store_true", help="render bar charts")
    profile.set_defaults(func=_cmd_profile)

    optimize = subparsers.add_parser("optimize", help="run the E1 clustering flow")
    optimize.add_argument("source")
    optimize.add_argument("--block-size", type=_positive_int, default=32)
    optimize.add_argument("--banks", type=_positive_int, default=4)
    optimize.add_argument(
        "--strategy", choices=["identity", "frequency", "affinity", "random"],
        default="affinity",
    )
    optimize.add_argument(
        "--obs-out", metavar="RUN.jsonl", default=None,
        help="record spans/counters/manifest to a JSONL log (see: repro obs)",
    )
    optimize.set_defaults(func=_cmd_optimize)

    obs = subparsers.add_parser(
        "obs", help="inspect a JSONL observability log"
    )
    obs.add_argument("log", metavar="RUN.jsonl")
    obs.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="table renders for humans; json emits the machine-readable "
        "obs-report document (sorted keys) for CI assertions",
    )
    obs.set_defaults(func=_cmd_obs)

    compress = subparsers.add_parser("compress", help="run the E2 compression comparison")
    compress.add_argument("kernel", choices=kernel_names())
    compress.add_argument("--platform", choices=["risc", "vliw"], default="risc")
    compress.add_argument("--codec", choices=sorted(_CODECS), default="differential")
    compress.set_defaults(func=_cmd_compress)

    encode = subparsers.add_parser("encode", help="run the E3 encoder scoreboard")
    encode.add_argument("kernel", choices=kernel_names())
    encode.set_defaults(func=_cmd_encode)

    codecomp = subparsers.add_parser(
        "codecomp", help="sweep selective code compression on a kernel"
    )
    codecomp.add_argument("kernel", choices=kernel_names())
    codecomp.set_defaults(func=_cmd_codecomp)

    bist = subparsers.add_parser("bist", help="BIST coverage + top-up demo (EX8)")
    bist.add_argument("--width", type=int, default=32)
    bist.add_argument("--patterns", type=int, default=512)
    bist.add_argument("--seed", type=int, default=7)
    bist.set_defaults(func=_cmd_bist)

    lint = subparsers.add_parser(
        "lint", help="run the architecture & determinism linter"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the installed package)",
    )
    lint.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    lint.add_argument(
        "--select", action="append", metavar="RULE,...", default=[],
        help="restrict to the given rule ids or family prefixes like PAR "
        "(repeatable, comma-separated)",
    )
    lint.add_argument(
        "--statistics", action="store_true",
        help="append per-rule finding counts to the report",
    )
    lint.add_argument(
        "--schemas", action="store_true",
        help="print the extracted persisted-schema report (field sets and "
        "versions) as canonical JSON instead of linting",
    )
    lint.set_defaults(func=_cmd_lint)

    benchreport = subparsers.add_parser(
        "benchreport",
        help="render a pytest-benchmark run as a static HTML perf report",
    )
    benchreport.add_argument(
        "run", metavar="RUN.json", help="pytest-benchmark JSON export"
    )
    benchreport.add_argument(
        "--baseline", metavar="BASELINE.json", default=None,
        help="committed baseline to draw as the second series and gate against",
    )
    benchreport.add_argument(
        "--obs", action="append", metavar="RUN.jsonl", default=None,
        help="obs JSONL run log to append as a per-stage timing section "
        "(repeatable)",
    )
    benchreport.add_argument(
        "--out", metavar="REPORT.html", default="benchmark-report.html",
        help="output HTML path (default benchmark-report.html)",
    )
    benchreport.add_argument(
        "--json-out", metavar="SUMMARY.json", default=None,
        help="also write the machine-readable report payload",
    )
    benchreport.add_argument(
        "--title", default="Benchmark report", help="report heading"
    )
    benchreport.set_defaults(func=_cmd_benchreport)

    phases = subparsers.add_parser("phases", help="detect program phases in a trace")
    phases.add_argument("source")
    phases.add_argument("--window", type=_positive_int, default=512)
    phases.add_argument("--clusters", type=_positive_int, default=3)
    phases.add_argument("--block-size", type=_positive_int, default=32)
    phases.set_defaults(func=_cmd_phases)

    trace = subparsers.add_parser(
        "trace",
        help="pack and inspect on-disk columnar trace stores (.tstore)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    pack = trace_sub.add_parser(
        "pack",
        help="pack a trace source into a memory-mappable .tstore directory",
    )
    pack.add_argument(
        "source",
        metavar="SOURCE",
        help="kernel name, trace file, or synth:GENERATOR[:k=v,...]",
    )
    pack.add_argument("out", metavar="OUT.tstore", help="output store directory")
    pack.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="EVENTS",
        help="streaming chunk size recorded in the header (default 65536)",
    )
    pack.set_defaults(func=_cmd_trace_pack)
    info = trace_sub.add_parser(
        "info", help="print a store's header (schema, digest, columns)"
    )
    info.add_argument("store", metavar="STORE.tstore")
    info.add_argument(
        "--verify",
        action="store_true",
        help="also check per-column digests against the header",
    )
    info.set_defaults(func=_cmd_trace_info)

    from .batch.flows import FLOW_NAMES

    sweep = subparsers.add_parser(
        "sweep",
        help="fan a flow over traces x configs with caching (repro.batch)",
    )
    sweep.add_argument(
        "sources",
        nargs="+",
        metavar="SOURCE",
        help="kernel name, trace file, or synth:GENERATOR[:k=v,...]",
    )
    sweep.add_argument("--flow", choices=sorted(FLOW_NAMES), default="e1_clustering")
    sweep.add_argument(
        "--set",
        action="append",
        metavar="K=V[,K=V...]",
        help="one flow configuration (repeat for a config grid)",
    )
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument(
        "--cache-dir",
        default=".repro-sweep-cache",
        help="content-addressed result cache location",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache entirely"
    )
    sweep.add_argument("--retries", type=int, default=2, help="extra attempts per task")
    sweep.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sweep.add_argument(
        "--obs-out", metavar="RUN.jsonl", default=None,
        help="record spans/counters to a JSONL log (see: repro obs)",
    )
    sweep.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help="record per-worker observability shards under DIR "
        "(render with: repro timeline DIR)",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr (done/failed/cached, ETA)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    timeline = subparsers.add_parser(
        "timeline",
        help="merge a sweep's worker shards and render an HTML Gantt timeline",
    )
    timeline.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="shard root from `repro sweep --obs-dir` (or one sweep's directory)",
    )
    timeline.add_argument(
        "--sweep", metavar="SWEEP_ID", default=None,
        help="select one sweep when RUN_DIR holds several",
    )
    timeline.add_argument(
        "--out", metavar="TIMELINE.html", default="timeline.html",
        help="output HTML path (default timeline.html)",
    )
    timeline.add_argument(
        "--json-out", metavar="TIMELINE.json", default=None,
        help="also write the machine-readable sweep-timeline document",
    )
    timeline.add_argument(
        "--title", default="Sweep timeline", help="report heading"
    )
    timeline.set_defaults(func=_cmd_timeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
