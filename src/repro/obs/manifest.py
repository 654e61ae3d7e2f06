"""Run manifests: provenance for every regenerated number.

A manifest answers "what produced this run log?": package version, Python
and OS, a configuration fingerprint, and the seed.  Only
:class:`~repro.core.pipeline.MemoryOptimizationFlow` builds manifests: one
is attached to each :class:`~repro.core.pipeline.FlowResult` and, when the
run is recorded, written as the first line of its JSONL run log — so two
runs whose numbers differ can first be checked for differing *inputs*.

Manifests are deterministic: no wall-clock timestamps (the determinism
policy applies to provenance too — two identical runs produce identical
manifests), and the config fingerprint is a canonical-JSON SHA-256, stable
across dict ordering and process boundaries.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Mapping

__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "collect_manifest", "config_fingerprint"]

#: Version of the manifest payload layout.
MANIFEST_SCHEMA_VERSION = 2

#: Keys that legitimately differ between two comparable runs (a different
#: seed or config is a different *experiment*, not an environment drift).
_RUN_SPECIFIC_KEYS = frozenset({"seed", "config_hash", "extra"})


def config_fingerprint(payload: Mapping) -> str:
    """Canonical fingerprint of a configuration mapping.

    SHA-256 over sorted-key JSON (non-JSON values fall back to ``repr``),
    truncated to 16 hex digits — collision-safe for provenance purposes and
    short enough for table cells.
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _package_version() -> str:
    """Installed ``repro`` version, or a marker when running from a bare tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "0+uninstalled"


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one instrumented run.

    Parameters
    ----------
    package_version:
        Installed ``repro`` distribution version.
    python_version / platform:
        Interpreter and OS identifiers (``sys``-derived, deterministic).
    config_hash:
        :func:`config_fingerprint` of the run's configuration, if any.
    seed:
        The run's RNG seed, if any.
    extra:
        Free-form additional provenance (kernel name, trace source, ...).
    """

    package_version: str
    python_version: str
    platform: str
    config_hash: str | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-serializable payload (field order preserved)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output (unknown keys ignored)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 (set of names)
        return cls(**{key: value for key, value in data.items() if key in known})

    def differences(self, other: "RunManifest") -> list[str]:
        """Environment keys on which ``self`` and ``other`` disagree.

        Run-specific keys (seed, config hash, extra) are excluded: two runs
        of *different experiments* on the *same environment* compare clean.
        Each entry reads ``key: <self> != <other>``.
        """
        mine, theirs = self.to_dict(), other.to_dict()
        return [
            f"{key}: {mine[key]!r} != {theirs[key]!r}"
            for key in mine
            if key not in _RUN_SPECIFIC_KEYS and mine[key] != theirs[key]
        ]


def collect_manifest(
    config_hash: str | None = None, seed: int | None = None, **extra
) -> RunManifest:
    """Assemble the manifest for the current environment."""
    info = sys.version_info
    return RunManifest(
        package_version=_package_version(),
        python_version=f"{info.major}.{info.minor}.{info.micro}",
        platform=sys.platform,
        config_hash=config_hash,
        seed=seed,
        extra=dict(extra),
    )
