"""2D mesh network-on-chip connecting the vaults of one stack.

Table 3: 2D mesh, 16 B links, 3 cycles/hop.  Sixteen vaults form a 4x4
mesh; messages are routed dimension-ordered (X then Y).  The model
provides hop counts, per-message latency and serialization delay; the
NoC's Table 4 energy (0.04 pJ/bit/mm) is charged by
:mod:`repro.energy.model`.
"""

from __future__ import annotations

import functools
import math

from repro.config.interconnect import InterconnectConfig


@functools.lru_cache(maxsize=None)
def _mean_hops(side: int) -> float:
    """Mean Manhattan distance over all ordered tile pairs of a
    ``side x side`` mesh, memoized per geometry.

    The sum over ordered pairs decomposes per axis: each axis
    contributes ``side**2`` (the free axis combinations) times
    ``sum(|i - j|) = side * (side**2 - 1) / 3`` (an exact integer).
    The integer total divided by the pair count is bit-identical to
    brute-force summation, and the cache means the 50+ evaluations per
    figure run cost one dict hit each instead of an O(tiles**2) loop.
    """
    total = 2 * side * side * (side * (side * side - 1) // 3)
    num_pairs = side ** 4
    return total / num_pairs


class MeshNoc:
    """Dimension-ordered-routing 2D mesh over one stack's vaults."""

    def __init__(
        self,
        num_tiles: int,
        config: InterconnectConfig,
    ) -> None:
        if num_tiles < 1:
            raise ValueError("mesh needs at least one tile")
        side = int(math.isqrt(num_tiles))
        if side * side != num_tiles:
            raise ValueError(f"{num_tiles} tiles do not form a square mesh")
        self._side = side
        self._config = config

    @property
    def num_tiles(self) -> int:
        return self._side * self._side

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance under dimension-ordered routing."""
        if not 0 <= src < self.num_tiles:
            raise ValueError(f"tile {src} out of range")
        if not 0 <= dst < self.num_tiles:
            raise ValueError(f"tile {dst} out of range")
        side = self._side
        return abs(src % side - dst % side) + abs(src // side - dst // side)

    def mean_hops(self) -> float:
        """Average hop count over all ordered tile pairs (uniform traffic).

        Memoized per mesh side (see :func:`_mean_hops`): the performance
        model asks for this once per evaluated phase, which used to
        recompute the same all-pairs sum dozens of times per figure run.
        """
        return _mean_hops(self._side)
