"""Tests for the mesh NoC, SerDes links and the two topologies."""

import pytest

from repro.config.dram import HmcGeometry
from repro.config.interconnect import InterconnectConfig
from repro.interconnect import (
    FullyConnectedTopology,
    MeshNoc,
    SerdesLink,
    StarTopology,
    build_topology,
)

GEO = HmcGeometry()
ICFG = InterconnectConfig()


class TestMeshNoc:
    def test_4x4_geometry(self):
        mesh = MeshNoc(16, ICFG)
        assert mesh.num_tiles == 16

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MeshNoc(15, ICFG)

    def test_hops_manhattan(self):
        mesh = MeshNoc(16, ICFG)
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6  # (0,0) -> (3,3)
        assert mesh.hops(5, 6) == 1

    def test_hops_symmetric(self):
        mesh = MeshNoc(16, ICFG)
        for a in range(16):
            for b in range(16):
                assert mesh.hops(a, b) == mesh.hops(b, a)

    def test_mean_hops(self):
        mesh = MeshNoc(16, ICFG)
        # 4x4 mesh uniform traffic: mean one-dimension distance = 1.25.
        assert mesh.mean_hops() == pytest.approx(2.5)

    def test_tile_bounds(self):
        with pytest.raises(ValueError):
            MeshNoc(16, ICFG).hops(0, 16)


class TestSerdesLink:
    def test_bandwidth(self):
        link = SerdesLink(ICFG)
        assert link.bw_bps_per_dir == pytest.approx(20e9)

    def test_transfer_time(self):
        link = SerdesLink(ICFG)
        assert link.transfer_ns(20) == pytest.approx(1.0)
        assert link.transfer_ns(0) == 0.0

    def test_rejects_negative(self):
        link = SerdesLink(ICFG)
        with pytest.raises(ValueError):
            link.transfer_ns(-1)


class TestStarTopology:
    def make(self):
        return StarTopology(GEO, ICFG)

    def test_link_count(self):
        assert self.make().num_serdes_links == 4

    def test_cpu_access_single_crossing(self):
        route = self.make().cpu_access_route(17)
        assert route.serdes_crossings == 1

    def test_data_movement_double_crossing(self):
        # vault-to-vault movement round-trips via the CPU hub.
        route = self.make().route(0, 40)
        assert route.serdes_crossings == 2

    def test_shuffle_egress_halved(self):
        topo = self.make()
        assert topo.shuffle_egress_bw_bps() == pytest.approx(4 * 20e9 / 2)


class TestFullyConnectedTopology:
    def make(self):
        return FullyConnectedTopology(GEO, ICFG)

    def test_link_count(self):
        assert self.make().num_serdes_links == 6  # C(4,2)

    def test_vault_local_route_free(self):
        route = self.make().route(5, 5)
        assert route.is_vault_local
        assert route.serdes_crossings == 0
        assert route.mesh_hops == 0

    def test_intra_stack_uses_mesh_only(self):
        route = self.make().route(0, 5)
        assert route.serdes_crossings == 0
        assert route.mesh_hops > 0

    def test_cross_stack_single_crossing(self):
        route = self.make().route(0, 16)
        assert route.serdes_crossings == 1

    def test_shuffle_egress(self):
        # 3 egress links x 20 GB/s / (3/4 remote fraction) = 80 GB/s.
        assert self.make().shuffle_egress_bw_bps() == pytest.approx(80e9)

    def test_message_latency_grows_with_crossings(self):
        topo = self.make()
        local = topo.message_latency_ns(topo.route(0, 1), 64)
        remote = topo.message_latency_ns(topo.route(0, 16), 64)
        assert remote > local


class TestBuildTopology:
    def test_dispatch(self):
        assert isinstance(build_topology("star", GEO, ICFG), StarTopology)
        assert isinstance(
            build_topology("fully-connected", GEO, ICFG), FullyConnectedTopology
        )

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_topology("ring", GEO, ICFG)

    def test_vault_bounds(self):
        topo = build_topology("fully-connected", GEO, ICFG)
        with pytest.raises(ValueError):
            topo.route(0, 64)
