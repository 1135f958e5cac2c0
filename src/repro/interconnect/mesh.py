"""2D mesh network-on-chip connecting the vaults of one stack.

Table 3: 2D mesh, 16 B links, 3 cycles/hop.  Sixteen vaults form a 4x4
mesh; messages are routed dimension-ordered (X then Y).  The model
provides hop counts, per-message latency, serialization delay and the
bit-distance product the energy model charges (0.04 pJ/bit/mm).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.config.energy import EnergyConfig
from repro.config.interconnect import InterconnectConfig


@dataclass(frozen=True)
class MeshCoord:
    x: int
    y: int


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
        energy: EnergyConfig = None,
    ) -> None:
        if num_tiles < 1:
            raise ValueError("mesh needs at least one tile")
        side = int(math.isqrt(num_tiles))
        if side * side != num_tiles:
            raise ValueError(f"{num_tiles} tiles do not form a square mesh")
        self._side = side
        self._config = config
        self._energy = energy if energy is not None else EnergyConfig()

    @property
    def side(self) -> int:
        return self._side

    @property
    def num_tiles(self) -> int:
        return self._side * self._side

    def coord(self, tile: int) -> MeshCoord:
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return MeshCoord(x=tile % self._side, y=tile // self._side)

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

    def latency_ns(self, src: int, dst: int, message_b: int) -> float:
        """Head latency plus serialization for one message."""
        hop_ns = self._config.noc_hop_latency_ns()
        return self.hops(src, dst) * hop_ns + self._config.noc_serialization_ns(message_b)

    def transfer_energy_j(self, src: int, dst: int, message_b: int) -> float:
        """Bit x millimetre energy of moving a message (Table 4's NOC row)."""
        distance_mm = self.hops(src, dst) * self._config.noc_hop_distance_mm
        return message_b * 8 * distance_mm * self._energy.noc_j_per_bit_mm
