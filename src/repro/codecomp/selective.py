"""Profile-driven selective code compression (DATE 2003 session 6A class).

Compressing a whole executable shrinks instruction memory but puts a
decompressor on every I-cache refill; the 6A insight ("Profile-Driven
Selective Code Compression", Xie/Wolf/Lekatsas) is that most refills hit a
small *hot* fraction of the code, so compressing only the **cold** blocks
keeps nearly all of the size saving while removing nearly all of the
performance penalty.

This module implements exactly that flow on the package's own substrates:

1. run the program on the ISS, collect per-block fetch counts;
2. rank blocks by dynamic fetch count, mark the coldest ``fraction`` of the
   *static* code for compression;
3. compress marked blocks with the word-dictionary codec;
4. evaluate: static code size, and (via the I-cache) how many refills hit
   compressed blocks — each pays the decompressor's per-block latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.cache import Cache, CacheConfig
from ..isa.assembler import Program
from ..isa.cpu import CPU
from ..trace.trace import Trace
from .dictionary import WordDictionaryCodec

__all__ = ["CompressedCodeLayout", "SelectiveCodeCompressor", "CodeCompressionReport"]


@dataclass
class CompressedCodeLayout:
    """Which blocks of a program's text are stored compressed."""

    program: Program
    block_words: int
    compressed_blocks: frozenset
    codec: WordDictionaryCodec
    compressed_bytes_per_block: dict[int, int]

    @property
    def num_blocks(self) -> int:
        """Number of text blocks."""
        words = len(self.program.text_words)
        return (words + self.block_words - 1) // self.block_words

    @property
    def raw_size(self) -> int:
        """Uncompressed text size in bytes."""
        return 4 * len(self.program.text_words)

    @property
    def stored_size(self) -> int:
        """Stored text size: compressed blocks shrink, the rest stay raw.

        Adds the decompression dictionary and a 2-byte per-block index table
        (the block-offset map every compressed-code scheme needs) — but only
        when at least one block is actually compressed.
        """
        total = 0
        for block in range(self.num_blocks):
            start = block * self.block_words
            block_len = min(self.block_words, len(self.program.text_words) - start)
            if block in self.compressed_blocks:
                total += self.compressed_bytes_per_block[block]
            else:
                total += 4 * block_len
        if self.compressed_blocks:
            total += self.codec.table_bytes + 2 * self.num_blocks
        return total

    @property
    def size_reduction(self) -> float:
        """Fraction of code-memory bytes saved (can be negative)."""
        if self.raw_size == 0:
            return 0.0
        return 1.0 - self.stored_size / self.raw_size

    def block_of_address(self, address: int) -> int:
        """Text block index containing a fetch address."""
        return (address - self.program.text_base) // (4 * self.block_words)

    def is_compressed(self, address: int) -> bool:
        """Whether the block holding ``address`` is stored compressed."""
        return self.block_of_address(address) in self.compressed_blocks


@dataclass
class CodeCompressionReport:
    """Outcome of evaluating a layout against an instruction trace."""

    layout: CompressedCodeLayout
    fetches: int
    refills: int
    compressed_refills: int
    decompression_cycles: int
    baseline_cycles: int

    @property
    def size_reduction(self) -> float:
        """Code-memory bytes saved."""
        return self.layout.size_reduction

    @property
    def slowdown(self) -> float:
        """Fractional cycle increase caused by refill decompression."""
        if self.baseline_cycles == 0:
            return 0.0
        return self.decompression_cycles / self.baseline_cycles


class SelectiveCodeCompressor:
    """Builds and evaluates selective code-compression layouts.

    Parameters
    ----------
    block_words:
        Instructions per compression block; one block must fill one I-cache
        line (8 words = 32 B by default), so each refill decompresses one
        block.
    dictionary_entries:
        Dictionary capacity.
    decompress_cycles_per_word:
        Latency of the refill-path decompressor.
    icache:
        Geometry used for the refill evaluation.
    """

    def __init__(
        self,
        block_words: int = 8,
        dictionary_entries: int = 128,
        decompress_cycles_per_word: int = 2,
        icache: CacheConfig | None = None,
    ) -> None:
        if block_words <= 0:
            raise ValueError(f"block_words must be positive, got {block_words}")
        self.icache = icache if icache is not None else CacheConfig(size=1024, line_size=32, ways=2)
        if 4 * block_words != self.icache.line_size:
            raise ValueError(
                f"block_words {block_words} ({4 * block_words} bytes) must fill one "
                f"I-cache line of {self.icache.line_size} bytes"
            )
        self.block_words = block_words
        self.dictionary_entries = dictionary_entries
        self.decompress_cycles_per_word = decompress_cycles_per_word

    # -- profiling ----------------------------------------------------------------

    def profile(self, program: Program, memory_size: int = 1 << 20) -> tuple[Trace, dict[int, int]]:
        """Run the program; return the fetch trace and per-block fetch counts."""
        result = CPU(memory_size=memory_size).run(program)
        counts: dict[int, int] = {}
        base = program.text_base
        for address in result.instruction_trace.addresses.tolist():
            block = (address - base) // (4 * self.block_words)
            counts[block] = counts.get(block, 0) + 1
        return result.instruction_trace, counts

    # -- layout construction --------------------------------------------------------

    def build_layout(
        self,
        program: Program,
        block_fetch_counts: dict[int, int],
        fraction: float,
        selection: str = "coldest",
    ) -> CompressedCodeLayout:
        """Mark ``fraction`` of the text blocks for compression.

        ``selection``: ``"coldest"`` (the profile-driven policy), ``"hottest"``
        (the adversarial control), or ``"all"``/``"none"`` via fraction 1/0.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if selection not in ("coldest", "hottest"):
            raise ValueError(f"selection must be 'coldest' or 'hottest', got {selection!r}")
        words = program.text_words
        num_blocks = (len(words) + self.block_words - 1) // self.block_words
        order = sorted(
            range(num_blocks),
            key=lambda block: (block_fetch_counts.get(block, 0), block),
            reverse=(selection == "hottest"),
        )
        chosen = frozenset(order[: int(round(fraction * num_blocks))])

        codec = WordDictionaryCodec.fit(words, max_entries=self.dictionary_entries)
        compressed_sizes = {}
        for block in chosen:
            start = block * self.block_words
            block_slice = words[start : start + self.block_words]
            compressed_sizes[block] = codec.compressed_size(block_slice)
        return CompressedCodeLayout(
            program=program,
            block_words=self.block_words,
            compressed_blocks=chosen,
            codec=codec,
            compressed_bytes_per_block=compressed_sizes,
        )

    # -- evaluation -------------------------------------------------------------------

    def evaluate(
        self, layout: CompressedCodeLayout, instruction_trace: Trace
    ) -> CodeCompressionReport:
        """Replay the fetch trace through the I-cache; charge decompression
        latency on every refill of a compressed block."""
        transfers = Cache(self.icache).run(instruction_trace.addresses)
        refills = [transfer for _index, transfer in transfers]  # fetches never dirty a line
        compressed_refills = sum(layout.is_compressed(refill.line_address) for refill in refills)
        # One issue slot per fetch, plus the memory latency of every refill
        # (identical both ways).
        baseline_cycles = len(instruction_trace) + 20 * len(refills)
        decompression_cycles = (
            compressed_refills * self.decompress_cycles_per_word * self.block_words
        )
        return CodeCompressionReport(
            layout=layout,
            fetches=len(instruction_trace),
            refills=len(refills),
            compressed_refills=compressed_refills,
            decompression_cycles=decompression_cycles,
            baseline_cycles=baseline_cycles,
        )
