"""Reprogrammable transform selection (the 1B-3 deployment model).

The paper's hardware is *reprogrammable*: the encoding transform is chosen
per application (from profiling) and loaded into the fetch-path logic.  The
:class:`TransformSelector` models exactly that flow: given a profiled
instruction stream, it trains the functional transform, evaluates the whole
candidate family, and returns the winner plus the full scoreboard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import BusEncoder
from .classic import BusInvertEncoder, GrayEncoder, RawEncoder, T0Encoder, XorDiffEncoder
from .functional import FunctionalEncoder
from .metrics import EncodedStreamReport, measure_encoder

__all__ = ["SelectionResult", "TransformSelector", "default_candidates"]


def default_candidates(width: int = 32) -> list[BusEncoder]:
    """The standard candidate family (application-blind encoders only)."""
    return [
        RawEncoder(width),
        GrayEncoder(width),
        T0Encoder(width),
        XorDiffEncoder(width),
        BusInvertEncoder(width),
    ]


@dataclass
class SelectionResult:
    """Outcome of a per-application transform selection."""

    best: BusEncoder
    best_report: EncodedStreamReport
    scoreboard: list[EncodedStreamReport]

    def report_for(self, name: str) -> EncodedStreamReport:
        """Scoreboard entry of the named encoder."""
        for report in self.scoreboard:
            if report.encoder_name == name:
                return report
        raise KeyError(f"no report for encoder {name!r}")


class TransformSelector:
    """Profiles a stream, trains the functional transform, picks the winner.

    Parameters
    ----------
    width:
        Bus width.
    include_functional:
        Train and include the application-specific functional transform.
    train_fraction:
        Fraction of the stream used for training; evaluation always runs on
        the *entire* stream, so a transform that over-fits its training
        prefix pays for it honestly.
    """

    def __init__(
        self,
        width: int = 32,
        include_functional: bool = True,
        train_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
        self.width = width
        self.include_functional = include_functional
        self.train_fraction = train_fraction

    def select(self, words: list[int]) -> SelectionResult:
        """Evaluate the family on ``words``; return the minimum-transition encoder.

        The stream is checked once, before training: the first word outside
        ``[0, 2**width)`` raises a ``ValueError`` naming its index, its value
        and the width.
        """
        if not words:
            raise ValueError(
                f"cannot select a transform for an empty stream "
                f"(words={words!r})"
            )
        candidates = default_candidates(self.width)
        limit = 1 << self.width
        if min(words) < 0 or max(words) >= limit:
            index, word = next(
                (index, word) for index, word in enumerate(words) if not 0 <= word < limit
            )
            raise ValueError(
                f"word {index} is {word}, outside the {self.width}-bit bus "
                f"range [0, 2**{self.width})"
            )
        if self.include_functional:
            cut = max(1, int(len(words) * self.train_fraction))
            for xor_previous in (False, True):
                trained = FunctionalEncoder.fit(
                    words[:cut], width=self.width, xor_previous=xor_previous
                )
                trained.name = f"functional{'+xor' if xor_previous else ''}"
                candidates.append(trained)
        scoreboard = [measure_encoder(encoder, words) for encoder in candidates]
        best_index = min(
            range(len(scoreboard)), key=lambda index: scoreboard[index].total_transitions
        )
        return SelectionResult(
            best=candidates[best_index],
            best_report=scoreboard[best_index],
            scoreboard=scoreboard,
        )
