"""Per-event references for the playback differential tests.

Every trace consumer in ``repro`` is one fold over columnar chunks.  The
functions here are the plain one-event-at-a-time versions of those kernels:
they walk a :class:`~repro.trace.Trace`'s events (``list(trace)``) in
order and keep their state in
Python dicts and lists.  Where a kernel folds its integer work into a float
merge point (``PartitionedMemory._report_from_counters``,
``repro.memory.sleep._accumulate_sleep_report``), its oracle lands in the
same one, so a disagreement between the two points at the kernel's integer
work: chunk carries, groupings and tie orders.  Slow by design: use them on
test-sized traces only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter, OrderedDict

from repro.memory import BankSleepReport, PartitionedMemory, SleepPolicy
from repro.memory.energy import SRAMEnergyModel
from repro.memory.partitioned import MemoryEnergyReport
from repro.memory.sleep import _accumulate_sleep_report
from repro.partition.evaluate import build_memory
from repro.reconfig import Application, DataSet, Kernel
from repro.spm import SPMAllocation, SPMAllocator
from repro.trace import AccessProfile, Trace
from repro.trace.io import TRACE_DIGEST_VERSION

__all__ = [
    "play",
    "simulate_bank_sleep",
    "profile_stats",
    "reuse_distances",
    "affinity_matrix",
    "spm_allocate",
    "knapsack",
    "stride_histogram",
    "address_entropy",
    "region_transition_matrix",
    "trace_to_application",
    "translate_rounded",
    "trace_digest",
]


def play(
    memory: PartitionedMemory, trace: Trace, include_leakage: bool = False
) -> MemoryEnergyReport:
    """:meth:`PartitionedMemory.play`: route each event to its bank, count it."""
    memory.reset_counters()
    events = list(trace)
    for event in events:
        bank = memory.bank_for(event.address)
        if event.is_write:
            bank.writes += 1
        else:
            bank.reads += 1
    duration_cycles = 0
    if events:
        duration_cycles = events[-1].time - events[0].time + 1
    return memory._report_from_counters(len(trace), duration_cycles, include_leakage)


def simulate_bank_sleep(
    bank_sizes: list[int],
    bank_bases: list[int],
    trace: Trace,
    policy: SleepPolicy,
    sram_model: SRAMEnergyModel | None = None,
    cycle_time_ns: float = 10.0,
) -> BankSleepReport:
    """:func:`repro.memory.simulate_bank_sleep`: per-bank gap walk."""
    if sram_model is None:
        sram_model = SRAMEnergyModel()
    events = list(trace)
    if not events:
        return BankSleepReport(0.0, 0.0, 0, 0.0, 0.0)
    access_times: list[list[int]] = [[] for _ in bank_sizes]
    limits = [base + size for base, size in zip(bank_bases, bank_sizes)]
    for event in events:
        for index, (base, limit) in enumerate(zip(bank_bases, limits)):
            if base <= event.address < limit:
                access_times[index].append(event.time)
                break
        else:
            raise ValueError(f"address {event.address:#x} outside every bank")
    per_bank: list[tuple[int, int, int]] = []
    for times in access_times:
        awake_cycles = asleep_cycles = wakes = 0
        for previous, current in zip(times, times[1:]):
            gap_cycles = current - previous
            if gap_cycles > policy.timeout_cycles:
                awake_cycles += policy.timeout_cycles
                asleep_cycles += gap_cycles - policy.timeout_cycles
                wakes += 1
            else:
                awake_cycles += gap_cycles
        per_bank.append((awake_cycles, asleep_cycles, wakes))
    return _accumulate_sleep_report(
        bank_sizes,
        per_bank,
        [times[0] if times else None for times in access_times],
        [times[-1] if times else None for times in access_times],
        events[0].time,
        events[-1].time,
        policy,
        sram_model,
        cycle_time_ns,
    )


def profile_stats(trace: Trace, block_size: int) -> tuple[list[int], dict]:
    """:class:`AccessProfile` construction: ``(block sequence, stats)``.

    ``stats`` maps block → ``(reads, writes, first_time, last_time)`` in
    first-encounter order.
    """
    sequence: list[int] = []
    stats: dict[int, list[int]] = {}
    for event in trace:
        block = event.block(block_size)
        sequence.append(block)
        entry = stats.setdefault(block, [0, 0, event.time, event.time])
        entry[0 if event.is_read else 1] += 1
        entry[3] = event.time
    return sequence, {block: tuple(entry) for block, entry in stats.items()}


def reuse_distances(block_sequence: list[int]) -> list[int]:
    """:func:`repro.trace.reuse_distances`: walk the LRU stack from the top."""
    stack: OrderedDict[int, None] = OrderedDict()
    distances: list[int] = []
    for block in block_sequence:
        if block in stack:
            # Depth of the block in the LRU stack == reuse distance.
            depth = 0
            for key in reversed(stack):
                if key == block:
                    break
                depth += 1
            distances.append(depth)
            stack.move_to_end(block)
        else:
            distances.append(-1)
            stack[block] = None
    return distances


def affinity_matrix(sequence: list[int], window: int) -> dict[tuple[int, int], int]:
    """:meth:`AccessProfile.affinity_matrix`: pair each event with its window."""
    affinity: dict[tuple[int, int], int] = {}
    recent: list[int] = []
    for block in sequence:
        for other in recent:
            if other == block:
                continue
            key = (block, other) if block < other else (other, block)
            affinity[key] = affinity.get(key, 0) + 1
        recent.append(block)
        if len(recent) > window - 1:
            recent.pop(0)
    return affinity


def spm_allocate(allocator: SPMAllocator, profile: AccessProfile) -> SPMAllocation:
    """:meth:`SPMAllocator.allocate`: sort blocks by ``(-count, block)``."""
    saving_pj = allocator.cache_path_energy - allocator.config.access_energy()
    capacity_blocks = allocator.config.size // profile.block_size
    chosen: list[int] = []
    benefit_pj = 0.0
    if saving_pj > 0 and capacity_blocks > 0:
        counts = profile.access_counts()
        ranked = sorted(counts, key=lambda block: (-counts[block], block))
        chosen = ranked[:capacity_blocks]
        benefit_pj = saving_pj * sum(counts[block] for block in chosen)
    return SPMAllocation(
        blocks=frozenset(chosen),
        block_size=profile.block_size,
        config=allocator.config,
        predicted_benefit=benefit_pj,
    )


def knapsack(items: list[tuple[str, int, float]], capacity: int) -> frozenset:
    """``EnergyAwareScheduler._knapsack``: in-place descending room update."""
    if not items:
        return frozenset()
    grain = 16
    slots = capacity // grain
    best = [0.0] * (slots + 1)
    chosen: list[list[str]] = [[] for _ in range(slots + 1)]
    for name, size, value in sorted(items, key=lambda item: item[0]):
        weight = (size + grain - 1) // grain
        for room in range(slots, weight - 1, -1):
            candidate = best[room - weight] + value
            if candidate > best[room]:
                best[room] = candidate
                chosen[room] = chosen[room - weight] + [name]
    top = max(range(slots + 1), key=lambda room: best[room])
    return frozenset(chosen[top])


def stride_histogram(trace: Trace, top: int | None = None) -> list[tuple[int, int]]:
    """:func:`repro.trace.stride_histogram`: ``Counter.most_common`` ranking."""
    counts: Counter = Counter()
    previous = None
    for event in trace:
        if previous is not None:
            counts[event.address - previous] += 1
        previous = event.address
    return list(counts.most_common(top))


def address_entropy(trace: Trace, block_size: int = 32) -> float:
    """:func:`repro.trace.address_entropy`: sum in first-encounter order."""
    counts: Counter = Counter(event.block(block_size) for event in trace)
    total = sum(counts.values())
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def region_transition_matrix(
    trace: Trace, region_size: int = 4096
) -> dict[tuple[int, int], int]:
    """:func:`repro.trace.region_transition_matrix`: count consecutive pairs."""
    matrix: dict[tuple[int, int], int] = {}
    previous = None
    for event in trace:
        region = event.address // region_size
        if previous is not None:
            matrix[(previous, region)] = matrix.get((previous, region), 0) + 1
        previous = region
    return matrix


def trace_to_application(
    trace: Trace, window_events: int, region_bytes: int, num_contexts: int
) -> Application:
    """:func:`repro.batch.trace_to_application`: slice, then count per window."""
    data = trace.data_accesses()
    kernels = []
    for start in range(0, len(data), window_events):
        regions: dict[int, tuple[int, int]] = {}
        for event in data[start : start + window_events]:
            region = event.address // region_bytes
            reads, writes = regions.get(region, (0, 0))
            regions[region] = (reads, writes + 1) if event.is_write else (reads + 1, writes)
        data_sets = tuple(
            DataSet(name=f"region_{region:#x}", size=region_bytes, reads=reads, writes=writes)
            for region, (reads, writes) in sorted(regions.items())
        )
        dominant = max(sorted(regions), key=lambda region: sum(regions[region]))
        kernels.append(
            Kernel(
                name=f"window_{start // window_events}",
                context=int(dominant) % num_contexts,
                data_sets=data_sets,
            )
        )
    return Application(name=trace.name, kernels=tuple(kernels))


def translate_rounded(spec, trace: Trace) -> Trace:
    """Exact-extent → physical-bank remap of a rounded spec, per address.

    The address translation ``simulate_partition`` applies when
    ``spec.round_pow2`` is set: a binary search over the exact extents finds
    the bank, and the address is rebased into that bank's physical window
    (addresses past the last extent clamp to the last bank).
    """
    exact_edges = [0]
    for blocks in spec.bank_blocks:
        exact_edges.append(exact_edges[-1] + blocks * spec.block_size)
    physical_bases = [bank.base for bank in build_memory(spec).banks]

    def translate(address: int) -> int:
        low, high = 0, len(exact_edges) - 2
        while low < high:
            mid = (low + high) // 2
            if address < exact_edges[mid + 1]:
                high = mid
            else:
                low = mid + 1
        return physical_bases[low] + (address - exact_edges[low])

    return Trace.from_events(
        (dataclasses.replace(event, address=translate(event.address)) for event in trace),
        name=trace.name,
    )


def trace_digest(trace: Trace) -> str:
    """:func:`repro.trace.io.trace_digest`: hash each event's canonical line in order."""
    hasher = hashlib.sha256()
    hasher.update(f"repro-trace-digest-v{TRACE_DIGEST_VERSION}\n".encode("ascii"))
    for event in trace:
        hasher.update(
            (
                f"{event.time} {event.kind.value} {event.space.value} "
                f"{event.address:#x} {event.size} {event.value}\n"
            ).encode("ascii")
        )
    return hasher.hexdigest()
