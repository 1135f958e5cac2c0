"""System topologies: star (CPU-centric) and fully connected (NMP).

The CPU-centric machine (paper figure 5) attaches four passive HMC
stacks to the CPU chip in a star: every memory access crosses exactly one
SerDes link (vault -> CPU), and shuffle traffic between two stacks must
cross twice (up to the CPU, back down).

The NMP machines (figure 3a) fully connect the four stacks: vault-local
traffic never leaves the stack, and remote traffic crosses exactly one
inter-stack link.  Inside a stack both use the 4x4 mesh.

The topology object answers two questions for the performance model:

- :meth:`route`: per-message cost (SerDes crossings, mesh hops);
- :meth:`shuffle_egress_bw_bps`: the aggregate rate at which one stack
  can push uniform all-to-all shuffle traffic out, which is what caps the
  Mondrian partitioning phase (section 7.1: "shifts the performance
  bottleneck to the SerDes links' bandwidth").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.dram import HmcGeometry
from repro.config.interconnect import InterconnectConfig
from repro.config.system import TOPOLOGY_FULL, TOPOLOGY_STAR
from repro.interconnect.mesh import MeshNoc
from repro.interconnect.serdes import SerdesLink


@dataclass(frozen=True)
class Route:
    """Cost summary of one message's path."""

    serdes_crossings: int
    mesh_hops: int
    is_vault_local: bool


class Topology:
    """Shared plumbing for both topologies."""

    def __init__(
        self,
        geometry: HmcGeometry,
        interconnect: InterconnectConfig,
    ) -> None:
        self._geo = geometry
        self._cfg = interconnect
        self._mesh = MeshNoc(geometry.vaults_per_stack, interconnect)
        self._link = SerdesLink(interconnect)

    @property
    def geometry(self) -> HmcGeometry:
        return self._geo

    @property
    def mesh(self) -> MeshNoc:
        return self._mesh

    @property
    def link(self) -> SerdesLink:
        return self._link

    @property
    def num_serdes_links(self) -> int:
        raise NotImplementedError

    def route(self, src_vault: int, dst_vault: int) -> Route:
        raise NotImplementedError

    def shuffle_egress_bw_bps(self) -> float:
        raise NotImplementedError

    def _stack_of(self, vault: int) -> int:
        if not 0 <= vault < self._geo.total_vaults:
            raise ValueError(f"vault {vault} out of range")
        return vault // self._geo.vaults_per_stack

    def _local_tile(self, vault: int) -> int:
        return vault % self._geo.vaults_per_stack

    def message_latency_ns(self, route: Route, message_b: int) -> float:
        """End-to-end latency of one message along a route."""
        latency = route.mesh_hops * self._cfg.noc_hop_latency_ns()
        latency += self._cfg.noc_serialization_ns(message_b)
        latency += route.serdes_crossings * self._link.transfer_ns(message_b)
        return latency


class StarTopology(Topology):
    """Four passive stacks hanging off the CPU (figure 5).

    All compute lives at the hub, so every memory access crosses the
    vault's stack-to-CPU link once; stack-to-stack traffic crosses two.
    """

    @property
    def num_serdes_links(self) -> int:
        return self._geo.num_stacks

    def route(self, src_vault: int, dst_vault: int) -> Route:
        # src/dst are the endpoints of a *data movement*; for the star all
        # movement is mediated by the CPU hub.
        src_stack = self._stack_of(src_vault)
        dst_stack = self._stack_of(dst_vault)
        crossings = 2 if src_stack != dst_stack else 2  # up and back down
        if src_vault == dst_vault:
            crossings = 2  # even same-vault movement round-trips via the CPU
        mesh_hops = self._mesh.hops(self._local_tile(src_vault), 0) + self._mesh.hops(
            0, self._local_tile(dst_vault)
        )
        return Route(serdes_crossings=crossings, mesh_hops=mesh_hops, is_vault_local=False)

    def cpu_access_route(self, vault: int) -> Route:
        """Route of one CPU load/store to a vault (single crossing)."""
        mesh_hops = self._mesh.hops(self._local_tile(vault), 0)
        return Route(serdes_crossings=1, mesh_hops=mesh_hops, is_vault_local=False)

    def shuffle_egress_bw_bps(self) -> float:
        """Shuffle data funnels through the CPU: the four links' ingress
        is the bottleneck, and every byte crosses twice."""
        total_link_bw = self.num_serdes_links * self._link.bw_bps_per_dir
        return total_link_bw / 2


class FullyConnectedTopology(Topology):
    """Active stacks, all-to-all SerDes (figure 3a)."""

    @property
    def num_serdes_links(self) -> int:
        n = self._geo.num_stacks
        return n * (n - 1) // 2

    def route(self, src_vault: int, dst_vault: int) -> Route:
        if src_vault == dst_vault:
            return Route(serdes_crossings=0, mesh_hops=0, is_vault_local=True)
        src_stack = self._stack_of(src_vault)
        dst_stack = self._stack_of(dst_vault)
        mesh_hops = 0
        crossings = 0
        if src_stack == dst_stack:
            mesh_hops = self._mesh.hops(
                self._local_tile(src_vault), self._local_tile(dst_vault)
            )
        else:
            crossings = 1
            # To the edge of the source mesh, across, then to the target tile.
            mesh_hops = self._mesh.hops(self._local_tile(src_vault), 0) + self._mesh.hops(
                0, self._local_tile(dst_vault)
            )
        return Route(
            serdes_crossings=crossings, mesh_hops=mesh_hops, is_vault_local=False
        )

    def shuffle_egress_bw_bps(self) -> float:
        """Uniform all-to-all: a stack sends (S-1)/S of its data over its
        S-1 egress links; the links, not the mesh, are the cap."""
        links_per_stack = self._geo.num_stacks - 1
        if links_per_stack == 0:
            return float("inf")
        egress_bw = links_per_stack * self._link.bw_bps_per_dir
        remote_fraction = links_per_stack / self._geo.num_stacks
        return egress_bw / remote_fraction


def build_topology(
    kind: str,
    geometry: HmcGeometry,
    interconnect: InterconnectConfig,
) -> Topology:
    """Construct the topology named by a system preset."""
    if kind == TOPOLOGY_STAR:
        return StarTopology(geometry, interconnect)
    if kind == TOPOLOGY_FULL:
        return FullyConnectedTopology(geometry, interconnect)
    raise ValueError(f"unknown topology kind: {kind!r}")
