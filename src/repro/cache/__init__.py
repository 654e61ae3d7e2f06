"""Set-associative cache simulator and memory image."""

from .cache import Cache, CacheConfig, CacheStats, LineTransfer
from .image import MemoryImage

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "LineTransfer",
    "MemoryImage",
]
