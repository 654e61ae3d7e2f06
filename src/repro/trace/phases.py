"""Trace phase detection via window clustering.

Real embedded programs execute in *phases* (initialize, stream, finalize;
per-frame pipelines), and each phase has its own hot set.  A single layout
optimized for the whole trace averages over phases; detecting phases enables
per-phase analysis and phase-aware layout optimization (the extension
experiment EX1).

Implementation: slice the trace into fixed-size windows, describe each
window by its block-access frequency vector (L1-normalized, over the top-N
hottest blocks globally), and cluster the vectors with a small k-means
(numpy, deterministic given ``seed``).  Consecutive windows with the same
cluster merge into a :class:`Phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import Trace

__all__ = ["Phase", "PhaseDetector", "PhaseSegmentation"]


@dataclass(frozen=True)
class Phase:
    """A maximal run of consecutive windows assigned to one cluster."""

    cluster: int
    start_event: int  # index of first event (inclusive)
    end_event: int  # index one past the last event

    @property
    def num_events(self) -> int:
        """Number of events in the phase."""
        return self.end_event - self.start_event


@dataclass
class PhaseSegmentation:
    """Result of phase detection on one trace."""

    trace: Trace
    phases: list[Phase]
    window: int
    num_clusters: int
    labels: np.ndarray  # cluster label per window

    def slice(self, phase: Phase) -> Trace:
        """The sub-trace of one phase."""
        return self.trace[phase.start_event : phase.end_event]

    def phases_of_cluster(self, cluster: int) -> list[Phase]:
        """All phases assigned to ``cluster``."""
        return [phase for phase in self.phases if phase.cluster == cluster]

    @property
    def num_phases(self) -> int:
        """Number of contiguous phases (≥ number of clusters in use)."""
        return len(self.phases)


class PhaseDetector:
    """K-means clustering of trace windows.

    Parameters
    ----------
    window:
        Events per window.
    num_clusters:
        Number of behaviour classes (k).  Clamped to the number of windows.
    top_blocks:
        Feature dimensionality: the globally hottest blocks used as the
        frequency-vector basis.
    block_size:
        Aggregation granularity.
    iterations, seed:
        K-means budget and determinism.
    """

    def __init__(
        self,
        window: int = 512,
        num_clusters: int = 3,
        top_blocks: int = 64,
        block_size: int = 32,
        iterations: int = 25,
        seed: int = 0,
        select_k: bool = True,
        min_improvement: float = 0.25,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if num_clusters <= 0:
            raise ValueError(f"num_clusters must be positive, got {num_clusters}")
        if top_blocks <= 0:
            raise ValueError(f"top_blocks must be positive, got {top_blocks}")
        if not 0.0 <= min_improvement < 1.0:
            raise ValueError(f"min_improvement must be in [0, 1), got {min_improvement}")
        self.window = window
        self.num_clusters = num_clusters
        self.top_blocks = top_blocks
        self.block_size = block_size
        self.iterations = iterations
        self.seed = seed
        self.select_k = select_k
        self.min_improvement = min_improvement

    # -- feature extraction ------------------------------------------------------

    def _features(self, trace: Trace) -> tuple[np.ndarray, list[int]]:
        blocks = trace.block_ids(self.block_size).tolist()
        counts: dict[int, int] = {}
        for block in blocks:
            counts[block] = counts.get(block, 0) + 1
        basis = sorted(counts, key=lambda block: (-counts[block], block))[: self.top_blocks]
        index_of = {block: index for index, block in enumerate(basis)}
        num_windows = (len(blocks) + self.window - 1) // self.window
        features = np.zeros((num_windows, len(basis) + 1))
        for position, block in enumerate(blocks):
            row = position // self.window
            column = index_of.get(block, len(basis))  # last column = "other"
            features[row, column] += 1
        # L1-normalize each window so phase identity is about *where* the
        # window looks, not how many events it happens to contain.
        sums = features.sum(axis=1, keepdims=True)
        sums[sums == 0] = 1
        return features / sums, basis

    # -- k-means -------------------------------------------------------------------

    def _kmeans(self, features: np.ndarray, k: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        n = len(features)
        k = min(k, n)
        # k-means++ style seeding: first centre random, rest far from chosen.
        centres = [features[int(rng.integers(0, n))]]
        while len(centres) < k:
            distances = np.min(
                [np.linalg.norm(features - centre, axis=1) ** 2 for centre in centres],
                axis=0,
            )
            total = distances.sum()
            if total == 0:
                centres.append(features[int(rng.integers(0, n))])
                continue
            centres.append(features[int(rng.choice(n, p=distances / total))])
        centres = np.array(centres)

        labels = np.zeros(n, dtype=np.int64)
        for _ in range(self.iterations):
            distances = np.linalg.norm(features[:, None, :] - centres[None, :, :], axis=2)
            new_labels = distances.argmin(axis=1)
            if np.array_equal(new_labels, labels) and _ > 0:
                break
            labels = new_labels
            for cluster in range(k):
                members = features[labels == cluster]
                if len(members):
                    centres[cluster] = members.mean(axis=0)
        return labels

    @staticmethod
    def _wcss(features: np.ndarray, labels: np.ndarray) -> float:
        """Within-cluster sum of squares."""
        total = 0.0
        for cluster in np.unique(labels):
            members = features[labels == cluster]
            centre = members.mean(axis=0)
            total += float(((members - centre) ** 2).sum())
        return total

    def _cluster(self, features: np.ndarray) -> np.ndarray:
        """Pick k (when ``select_k``) and return window labels.

        k grows from 1 only while each additional cluster reduces the
        within-cluster variance by at least ``min_improvement`` — a uniform
        (single-behaviour) trace therefore stays a single phase instead of
        shattering into sampling noise.
        """
        if not self.select_k:
            return self._kmeans(features, self.num_clusters)
        best_labels = np.zeros(len(features), dtype=np.int64)
        best_wcss = self._wcss(features, best_labels)
        for k in range(2, self.num_clusters + 1):
            labels = self._kmeans(features, k)
            wcss = self._wcss(features, labels)
            if best_wcss == 0 or wcss > (1.0 - self.min_improvement) * best_wcss:
                break
            best_labels, best_wcss = labels, wcss
        return best_labels

    # -- public API ------------------------------------------------------------------

    def detect(self, trace: Trace) -> PhaseSegmentation:
        """Segment ``trace`` into phases."""
        if not len(trace):
            return PhaseSegmentation(
                trace=trace, phases=[], window=self.window,
                num_clusters=self.num_clusters, labels=np.zeros(0, dtype=np.int64),
            )
        features, _basis = self._features(trace)
        labels = self._cluster(features)

        phases: list[Phase] = []
        start_window = 0
        for index in range(1, len(labels) + 1):
            if index == len(labels) or labels[index] != labels[start_window]:
                phases.append(
                    Phase(
                        cluster=int(labels[start_window]),
                        start_event=start_window * self.window,
                        end_event=min(index * self.window, len(trace)),
                    )
                )
                start_window = index
        return PhaseSegmentation(
            trace=trace,
            phases=phases,
            window=self.window,
            num_clusters=self.num_clusters,
            labels=labels,
        )
