"""Bus models: transition counting, energy, encoder plug-ins."""

from .bus import Bus, BusStats, count_transitions, hamming, word_flips, xor_deltas

__all__ = ["Bus", "BusStats", "count_transitions", "hamming", "word_flips", "xor_deltas"]
