"""Alias analysis: probabilities and the Table 3 census.

An *alias* is application data that — stored raw and passed through the
decoder's hash + syndrome check — happens to present at least the threshold
number of valid code words, so the decoder would wrongly "decompress" it.
Compressible aliases are harmless (they are stored compressed); the rare
incompressible aliases must be pinned in the LLC (Fig. 3).

Two views are provided:

* the analytical model from Section 3.1 — a random ``(n, k)`` word is a
  valid codeword with probability ``2^-(n-k)`` (0.39 % for (128,120)), and
  a random block contains ``>= 3`` of 4 valid words with probability
  ~2e-7 ("0.00002 %");
* a measured census over a population of blocks (vectorised with numpy),
  which the Table 3 experiment runs over incompressible blocks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import TYPE_CHECKING, Iterable, Optional

from repro.compression.base import BLOCK_BYTES
from repro.core.codec import COPCodec
from repro.core.config import COPConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "valid_codeword_probability",
    "codeword_count_probability",
    "alias_probability",
    "AliasCensus",
    "codeword_counts_bulk",
]


def valid_codeword_probability(config: Optional[COPConfig] = None) -> float:
    """P(random word is a valid codeword) = 2^-(check bits) = 1/256."""
    config = config or COPConfig.four_byte()
    return 2.0 ** -(config.codeword_bits - config.codeword_data_bits)


def codeword_count_probability(
    count: int, config: Optional[COPConfig] = None
) -> float:
    """P(random block shows exactly ``count`` valid code words)."""
    config = config or COPConfig.four_byte()
    m = config.num_codewords
    if not 0 <= count <= m:
        raise ValueError(f"count must be in 0..{m}")
    p = valid_codeword_probability(config)
    return comb(m, count) * p**count * (1 - p) ** (m - count)


def alias_probability(config: Optional[COPConfig] = None) -> float:
    """P(random block aliases) = P(valid words >= threshold).

    For the 4-byte variant this is the paper's "0.00002 %" (2e-7).
    """
    config = config or COPConfig.four_byte()
    return sum(
        codeword_count_probability(c, config)
        for c in range(config.codeword_threshold, config.num_codewords + 1)
    )


def codeword_counts_bulk(blocks: np.ndarray, codec: COPCodec) -> np.ndarray:
    """Valid-code-word count per block for a ``(N, 64)`` uint8 array.

    Equivalent to ``codec.codeword_count`` per row, but vectorised: the
    experiment harness classifies millions of blocks.  Delegates to the
    batch kernels (:class:`repro.kernels.BatchCodec`), whose scalar
    parity the kernels test suite enforces bit-for-bit.
    """
    from repro.kernels import BatchCodec

    return BatchCodec(codec).codeword_count_many(blocks)


@dataclass
class AliasCensus:
    """Histogram of valid-code-word counts over a block population.

    ``add`` classifies blocks through a codec; ``row`` mirrors Table 3:
    the fraction of blocks with each count and the equivalent number of
    blocks in a fully-used memory of ``memory_bytes``.
    """

    codec: COPCodec
    counts: dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, blocks: Iterable[bytes]) -> None:
        """Classify individual blocks (scalar path)."""
        for block in blocks:
            count = self.codec.codeword_count(block)
            self.counts[count] = self.counts.get(count, 0) + 1
            self.total += 1

    def add_array(self, blocks: np.ndarray) -> None:
        """Classify a ``(N, 64)`` uint8 array (vectorised path)."""
        import numpy as np

        counts = codeword_counts_bulk(blocks, self.codec)
        values, freq = np.unique(counts, return_counts=True)
        for value, n in zip(values.tolist(), freq.tolist()):
            self.counts[value] = self.counts.get(value, 0) + n
        self.total += blocks.shape[0]

    def fraction(self, count: int) -> float:
        """Fraction of the population with exactly ``count`` valid words."""
        if self.total == 0:
            return 0.0
        return self.counts.get(count, 0) / self.total

    def alias_fraction(self) -> float:
        """Fraction at or above the decoder threshold."""
        threshold = self.codec.config.codeword_threshold
        return sum(
            self.fraction(c)
            for c in range(threshold, self.codec.config.num_codewords + 1)
        )

    def equivalent_blocks(self, count: int, memory_bytes: int = 8 << 30) -> int:
        """Scale a fraction to a fully-used memory (Table 3's 8 GB column)."""
        return round(self.fraction(count) * (memory_bytes // BLOCK_BYTES))
