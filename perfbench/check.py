"""Output check: every operation's simulated outputs, and the paper's shapes.

On a recorded seed (``RECORDED_SEEDS``: the default seed and one held-out
seed) every operation's canonical outputs -- energies, savings, cycles,
transition counts, schedules, per-bank counts -- must match the record in
``records/<workload>.json`` to a relative 1e-9 (integers and strings
exactly).  On every seed the paper-shape assertions that
``benchmarks/test_e*.py`` make must hold, and ``store_sweep``'s warm sweep
must return exactly the cold sweep's results.  A mismatch fails the
operation it belongs to; an assertion over a whole table fails every
operation of that table.

The simulator is not validated against hardware: these checks pin the
model's own outputs and the paper's qualitative claims, and no simulator
error figure exists.

Run ``PYTHONPATH=src python3 -m perfbench.child --workload W --seed S
--record`` from the repository root to (re)write the record of one seed.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

RECORD_DIR = Path(__file__).resolve().parent / "records"
#: The default seed and the held-out seed whose outputs are recorded.
RECORDED_SEEDS = (0, 9973)
RELATIVE_TOLERANCE = 1e-9


def record_path(workload: str) -> Path:
    """The record file of ``workload``."""
    return RECORD_DIR / f"{workload}.json"


def load_record(workload: str, seed: int):
    """The recorded outputs of ``workload`` at ``seed``, or ``None``."""
    path = record_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def save_record(workload: str, seed: int, outputs: dict) -> Path:
    """Write ``outputs`` as the record of ``workload`` at ``seed``."""
    path = record_path(workload)
    records = json.loads(path.read_text()) if path.is_file() else {}
    records[str(seed)] = _canonical(outputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["{"]
    for seed_index, (key, operations) in enumerate(sorted(records.items())):
        lines.append(f" {json.dumps(key)}: {{")
        names = sorted(operations)
        for index, name in enumerate(names):
            comma = "," if index < len(names) - 1 else ""
            encoded = json.dumps(operations[name], sort_keys=True)
            lines.append(f"  {json.dumps(name)}: {encoded}{comma}")
        lines.append(" }" + ("," if seed_index < len(records) - 1 else ""))
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _canonical(value):
    return json.loads(json.dumps(value, sort_keys=True))


def differences(expected, actual, where: str = "") -> list:
    """Where ``actual`` departs from ``expected`` (floats to 1e-9 relative)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                found.append(f"{where}/{key}: present on one side only")
            else:
                found.extend(differences(expected[key], actual[key], f"{where}/{key}"))
        return found
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != recorded {len(expected)}"]
        found = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            found.extend(differences(left, right, f"{where}[{index}]"))
        return found
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
            if math.isclose(expected, actual, rel_tol=RELATIVE_TOLERANCE, abs_tol=1e-12):
                return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: {actual!r} != recorded {expected!r}"]


def check(workload: str, seed: int, smoke: bool, outputs: dict, sweeps: dict) -> dict:
    """Check one pass's outputs; returns failures, paper rows and notes.

    ``failures`` maps operation name to its first reason.
    """
    failures: dict = {}
    outputs = _canonical(outputs)
    record = load_record(workload, seed)
    compare_record = record is not None and not (smoke and workload == "store_sweep")
    if compare_record:
        for name, output in outputs.items():
            if name.startswith("warm/"):
                continue
            if name not in record:
                failures[name] = "no recorded output for this operation"
                continue
            found = differences(record[name], output)
            if found:
                failures[name] = f"{len(found)} outputs differ from the record, first {found[0]}"
    shapes = _SHAPES[workload](outputs, sweeps, full=not smoke)
    for names, reason in shapes["failures"]:
        for name in names:
            failures.setdefault(name, reason)
    return {
        "failures": failures,
        "record": "compared" if compare_record else "none for this seed",
        "paper_rows": shapes["paper_rows"],
    }


def _iss_platform(outputs: dict, sweeps: dict, full: bool) -> dict:
    failures = []
    savings = {"vliw": [], "risc": []}
    for name, output in outputs.items():
        if not (name.startswith("e2/") and name.endswith("/differential")):
            continue
        base_name = name[: -len("differential")] + "base"
        base = outputs.get(base_name)
        if base is None:
            continue
        pair = (base_name, name)
        saving = 1.0 - output["total_pj"] / base["total_pj"]
        ratio = output["unit"]["bytes_out"] / output["unit"]["bytes_in"]
        slowdown = output["cycles"] / base["cycles"] - 1.0
        savings[name.split("/")[1]].append(saving)
        if not saving > 0:
            failures.append((pair, f"compression saves {saving:.3%} <= 0"))
        if not ratio < 0.9:
            failures.append((pair, f"mean compression ratio {ratio:.3f} >= 0.9"))
        if not abs(slowdown) < 0.05:
            failures.append((pair, f"slowdown {slowdown:+.2%} beyond 5%"))
    functional = {}
    for name, output in outputs.items():
        if not name.startswith("e3/"):
            continue
        reduction = output["reduction"]
        functional[name] = reduction["functional"]
        if not (
            reduction["functional"] >= reduction["gray"]
            and reduction["functional"] >= reduction["bus_invert"]
            and reduction["functional"] > 0.20
        ):
            failures.append(((name,), "functional transform does not win by > 20%"))
    rows = []
    e2_names = [name for name in outputs if name.startswith("e2/")]
    for platform, low, high in (("vliw", 0.10, 0.22), ("risc", 0.11, 0.14)):
        if not savings[platform]:
            continue
        mean = statistics.mean(savings[platform])
        rows.append(("E2", f"{platform.upper()} mean saving", low, high, mean, 0.03 <= mean <= 0.30))
        if full and not mean > 0.04:
            failures.append((e2_names, f"{platform} mean saving {mean:.3%} <= 4%"))
    if functional:
        best = max(functional.values())
        rows.append(("E3", "max transition reduction", 0.50, 0.50, best, best >= 0.40))
        if full and not (best >= 0.45 and statistics.mean(functional.values()) > 0.35):
            failures.append((list(functional), "E3 table misses best >= 45% or mean > 35%"))
    return {"failures": failures, "paper_rows": rows}


def _e1_flow(outputs: dict, sweeps: dict, full: bool) -> dict:
    failures = []
    savings = {}
    for name, output in outputs.items():
        savings[name] = output["saving_vs_partitioned"]
        if not output["saving_vs_partitioned"] >= -0.01:
            failures.append(((name,), "clustering loses to partitioning alone"))
        if not output["saving_vs_monolithic"] > 0.05:
            failures.append(((name,), "clustered memory saves <= 5% vs monolithic"))
    rows = []
    if savings:
        mean = statistics.mean(savings.values())
        best = max(savings.values())
        rows.append(("E1", "avg energy saving", 0.25, 0.25, mean, 0.10 <= mean <= 0.40))
        rows.append(("E1", "max energy saving", 0.57, 0.57, best, best >= 0.40))
        if full and not (mean > 0.10 and best > 0.40):
            failures.append((list(savings), f"E1 table mean {mean:.1%} / max {best:.1%}"))
    return {"failures": failures, "paper_rows": rows}


def _store_sweep(outputs: dict, sweeps: dict, full: bool) -> dict:
    failures = []
    cold = {name[len("cold/"):]: output for name, output in outputs.items() if name.startswith("cold/")}
    warm = {name[len("warm/"):]: output for name, output in outputs.items() if name.startswith("warm/")}
    for name, output in warm.items():
        if cold.get(name) != output:
            failures.append(((f"warm/{name}",), "warm-cache result differs from the cold sweep"))
    if "cold" in sweeps and sweeps["cold"]["misses"] != len(cold):
        failures.append(([f"cold/{name}" for name in cold], "cold sweep hit a fresh cache"))
    if "warm" in sweeps and sweeps["warm"]["hits"] != len(warm):
        failures.append(([f"warm/{name}" for name in warm], "warm sweep missed the cache"))
    for name, output in outputs.items():
        negative = _negative_energy(output)
        if negative:
            failures.append(((name,), f"negative energy at {negative}"))
    stream = outputs.get("stream")
    if stream is not None and not 0.0 <= stream["sleep"]["sleep_fraction"] <= 1.0:
        failures.append((("stream",), "sleep fraction outside [0, 1]"))
    return {"failures": failures, "paper_rows": []}


def _negative_energy(value, where: str = ""):
    """The first key path holding a negative energy, or ``None``."""
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{where}/{key}"
            if isinstance(item, (int, float)) and "energy" in key and item < 0:
                return path
            found = _negative_energy(item, path)
            if found:
                return found
    return None


_SHAPES = {"iss_platform": _iss_platform, "e1_flow": _e1_flow, "store_sweep": _store_sweep}
