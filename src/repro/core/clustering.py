"""Address clustering strategies (the primary contribution, paper 1B-1).

Memory partitioning exploits *spatial locality of the access profile*: it can
only isolate hot data into a small cheap bank if the hot blocks are
**contiguous** in the address space.  Compilers and linkers do not optimize
for that, so hot blocks end up scattered and a k-bank contiguous partition
cannot separate them.  Address clustering permutes the blocks — producing a
:class:`~repro.core.layout.BlockLayout` — so that the subsequent partitioning
step finds far better divisions.

Strategies implemented:

* :class:`IdentityClustering` — no-op baseline (partitioning alone);
* :class:`FrequencyClustering` — order blocks by descending access count, the
  simplest profitable clustering (hot blocks gather at the low end);
* :class:`AffinityClustering` — the full algorithm: greedy agglomerative
  clustering on the block-affinity graph (blocks co-accessed within a small
  window attract each other), clusters ordered by access density, blocks
  within a cluster ordered by count;
* :class:`RandomClustering` — seeded random permutation, the ablation's lower
  bound.

:func:`refine_order` is an optional local-search pass (weighted-adjacency
1-D arrangement descent) that can polish any strategy's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.profile import AccessProfile
from .layout import BlockLayout

__all__ = [
    "ClusteringStrategy",
    "IdentityClustering",
    "FrequencyClustering",
    "AffinityClustering",
    "PhaseAwareClustering",
    "RandomClustering",
    "refine_order",
    "arrangement_cost",
    "get_strategy",
]


class ClusteringStrategy:
    """Base class: a strategy turns an :class:`AccessProfile` into a layout."""

    name = "base"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Produce a layout for ``profile``."""
        raise NotImplementedError


class IdentityClustering(ClusteringStrategy):
    """No clustering: blocks stay in original address order."""

    name = "identity"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Return the identity layout over the profile's touched blocks."""
        return BlockLayout.identity(profile)


class FrequencyClustering(ClusteringStrategy):
    """Order blocks by descending total access count (ties by block index)."""

    name = "frequency"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Order blocks hottest-first."""
        counts = profile.access_counts()
        order = sorted(counts, key=lambda block: (-counts[block], block))
        return BlockLayout(order, profile.block_size, name=self.name)


@dataclass
class AffinityClustering(ClusteringStrategy):
    """Agglomerative affinity clustering + density ordering.

    Parameters
    ----------
    window:
        Co-occurrence window for the affinity graph (events, not bytes).
    max_cluster_blocks:
        Clusters never grow beyond this many blocks; bounds the damage one
        huge cluster can do to the subsequent partitioning step.
    refine_passes:
        Number of local-search sweeps applied to the final order (0 = off).
    """

    window: int = 16
    max_cluster_blocks: int = 64
    refine_passes: int = 0

    name = "affinity"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Cluster by affinity, order clusters by density, optionally refine."""
        counts = profile.access_counts()
        affinity = profile.affinity_matrix(window=self.window)

        # Union-find over blocks, merging along edges by descending affinity.
        parent = {block: block for block in counts}
        size = {block: 1 for block in counts}

        def find(block: int) -> int:
            root = block
            while parent[root] != root:
                root = parent[root]
            while parent[block] != root:
                parent[block], block = root, parent[block]
            return root

        for (a, b), _weight in sorted(affinity.items(), key=lambda item: -item[1]):
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if size[ra] + size[rb] > self.max_cluster_blocks:
                continue
            parent[rb] = ra
            size[ra] += size[rb]

        clusters: dict[int, list[int]] = {}
        for block in counts:
            clusters.setdefault(find(block), []).append(block)

        # Order clusters by access density (hot, tight clusters first), and
        # blocks within each cluster by count so the very hottest words sit
        # together even inside a cluster.
        def density(members: list[int]) -> float:
            return sum(counts[block] for block in members) / len(members)

        ordered_clusters = sorted(clusters.values(), key=lambda members: -density(members))
        order: list[int] = []
        for members in ordered_clusters:
            order.extend(sorted(members, key=lambda block: (-counts[block], block)))

        if self.refine_passes > 0:
            order = refine_order(order, affinity, passes=self.refine_passes)
        return BlockLayout(order, profile.block_size, name=self.name)


@dataclass
class PhaseAwareClustering(ClusteringStrategy):
    """Cluster within detected execution phases (the EX6 sleep fix).

    The plain affinity layout optimizes dynamic energy but freely interleaves
    cold blocks used in *different program phases*, which destroys a bank's
    idle windows and with them the drowsy-mode leakage savings (see the EX6
    experiment).  This strategy first assigns each block to the phase where
    most of its accesses happen, then orders blocks by
    ``(phase, -count, block)`` — hot-first *within* each phase — so the
    partitioner's banks stay phase-local and can sleep through foreign
    phases.

    Parameters
    ----------
    window, num_clusters:
        Forwarded to the :class:`~repro.trace.phases.PhaseDetector`.
    """

    window: int = 2000
    num_clusters: int = 4

    name = "phase_aware"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Group blocks by their dominant phase, hottest-first within a phase."""
        from ..trace.phases import PhaseDetector

        detector = PhaseDetector(
            window=self.window,
            num_clusters=self.num_clusters,
            block_size=profile.block_size,
        )
        segmentation = detector.detect(profile.trace)
        counts = profile.access_counts()

        # Per-block access count per phase cluster.
        per_phase: dict[int, dict[int, int]] = {}
        for phase in segmentation.phases:
            for block in segmentation.slice(phase).block_ids(profile.block_size).tolist():
                per_phase.setdefault(block, {})
                per_phase[block][phase.cluster] = per_phase[block].get(phase.cluster, 0) + 1

        def home_phase(block: int) -> int:
            usage = per_phase.get(block)
            if not usage:
                return -1
            return max(usage, key=lambda cluster: (usage[cluster], -cluster))

        order = sorted(counts, key=lambda block: (home_phase(block), -counts[block], block))
        return BlockLayout(order, profile.block_size, name=self.name)


@dataclass
class RandomClustering(ClusteringStrategy):
    """Seeded random permutation — the ablation's worst case."""

    seed: int = 0

    name = "random"

    def build_layout(self, profile: AccessProfile) -> BlockLayout:
        """Return a seeded random permutation of the touched blocks."""
        rng = np.random.default_rng(self.seed)
        order = list(profile.blocks)
        rng.shuffle(order)
        return BlockLayout(order, profile.block_size, name=self.name)


def arrangement_cost(order: list[int], affinity: dict[tuple[int, int], int]) -> float:
    """Weighted linear-arrangement cost: Σ affinity(a,b) · |pos(a) − pos(b)|.

    Lower is better — strongly-correlated blocks should sit close together.
    """
    position = {block: index for index, block in enumerate(order)}
    return float(
        sum(
            weight * abs(position[a] - position[b])
            for (a, b), weight in affinity.items()
            if a in position and b in position
        )
    )


def refine_order(
    order: list[int],
    affinity: dict[tuple[int, int], int],
    passes: int = 2,
) -> list[int]:
    """Adjacent-swap descent on the weighted linear-arrangement cost.

    Each pass sweeps the order once, swapping neighbours whenever the swap
    reduces the arrangement cost.  O(passes · n · degree); deterministic.
    """
    if passes <= 0 or len(order) < 2:
        return list(order)

    # Adjacency lists for O(degree) swap-delta evaluation.
    neighbours: dict[int, dict[int, int]] = {}
    for (a, b), weight in affinity.items():
        neighbours.setdefault(a, {})[b] = weight
        neighbours.setdefault(b, {})[a] = weight

    order = list(order)
    position = {block: index for index, block in enumerate(order)}

    def swap_delta(i: int) -> float:
        """Cost change from swapping positions i and i+1."""
        a, b = order[i], order[i + 1]
        delta = 0.0
        for other, weight in neighbours.get(a, {}).items():
            if other == b:
                continue
            p = position[other] if other in position else None
            if p is None:
                continue
            delta += weight * (abs(p - (i + 1)) - abs(p - i))
        for other, weight in neighbours.get(b, {}).items():
            if other == a:
                continue
            p = position[other] if other in position else None
            if p is None:
                continue
            delta += weight * (abs(p - i) - abs(p - (i + 1)))
        return delta

    for _ in range(passes):
        improved = False
        for i in range(len(order) - 1):
            if swap_delta(i) < 0:
                a, b = order[i], order[i + 1]
                order[i], order[i + 1] = b, a
                position[a], position[b] = i + 1, i
                improved = True
        if not improved:
            break
    return order


_STRATEGIES = {
    "identity": IdentityClustering,
    "phase_aware": PhaseAwareClustering,
    "frequency": FrequencyClustering,
    "affinity": AffinityClustering,
    "random": RandomClustering,
}


def get_strategy(name: str, **kwargs) -> ClusteringStrategy:
    """Instantiate a clustering strategy by name."""
    if name not in _STRATEGIES:
        raise KeyError(f"unknown strategy {name!r}; available: {', '.join(sorted(_STRATEGIES))}")
    return _STRATEGIES[name](**kwargs)
