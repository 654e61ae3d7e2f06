"""Set-associative cache simulator and memory image."""

from .cache import (
    Cache,
    CacheAccessResult,
    CacheConfig,
    CacheStats,
    LineTransfer,
    ReplacementPolicy,
    WritePolicy,
)
from .image import MemoryImage

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CacheAccessResult",
    "LineTransfer",
    "ReplacementPolicy",
    "WritePolicy",
    "MemoryImage",
]
