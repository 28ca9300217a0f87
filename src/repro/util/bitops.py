"""Bit-manipulation primitives used throughout the simulator.

Cache geometry, prefetcher indexing, and the paper's truncated-add PHT
hash (Figure 9 of the paper) are all expressed in terms of these
helpers.  Everything operates on plain Python integers, which are
arbitrary precision, so callers must mask explicitly when they need a
fixed width — these helpers make that masking readable.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "bit_slice",
    "fold_xor",
    "index_geometry",
    "is_power_of_two",
    "log2_exact",
    "mask",
    "truncated_add",
]


def mask(width: int) -> int:
    """Return an integer with the low ``width`` bits set.

    ``mask(0)`` is 0 and ``mask(4)`` is ``0b1111``.  Raises
    :class:`ValueError` for negative widths.
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_slice(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    ``bit_slice(0b110100, 2, 3)`` selects bits [4:2] and returns
    ``0b101``.  A zero ``width`` returns 0.
    """
    if low < 0:
        raise ValueError(f"bit offset must be non-negative, got {low}")
    return (value >> low) & mask(width)


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return ``log2(value)`` for an exact power of two.

    Cache geometry (set counts, block sizes) must be powers of two so
    that tag/index/offset extraction is pure bit slicing; this helper
    enforces that invariant at configuration time.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a power of two, got {value}")
    return value.bit_length() - 1


def index_geometry(count: int) -> "tuple[int, int]":
    """Return ``(index_bits, index_mask)`` for a power-of-two table size.

    Every power-of-two-sized lookup structure in the simulator — cache
    set arrays, THT rows, PHT sets, the native backend's L1I geometry —
    derives the same pair of constants from its entry count: the number
    of index bits and the mask selecting them.  Centralising the pair
    here keeps the derivations identical everywhere (they used to be
    re-spelled inline in ``memory/address.py`` and ``core/indexing.py``)
    and enforces the power-of-two invariant in one place.
    """
    bits = log2_exact(count)
    return bits, mask(bits)


def truncated_add(values: Iterable[int], width: int) -> int:
    """Sum ``values`` and keep only the low ``width`` bits.

    This is the "truncated addition" indexing function from the paper's
    Figure 9 (borrowed from the DBCP signature scheme of Lai et al.):
    cheap in hardware (carry chain cut at ``width`` bits), and good
    enough as a hash because tag entropy lives in the low bits.
    """
    total = 0
    for value in values:
        total += value
    return total & mask(width)


def fold_xor(value: int, width: int) -> int:
    """Fold ``value`` down to ``width`` bits by XOR-ing chunks.

    An alternative indexing function explored in the ablation benches
    (the paper's Section 6 points at branch-predictor indexing lessons;
    gshare-style XOR folding is the obvious candidate).  ``width`` must
    be positive.
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    folded = 0
    chunk_mask = mask(width)
    while value:
        folded ^= value & chunk_mask
        value >>= width
    return folded
