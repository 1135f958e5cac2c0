"""Tests for the vault-controller extensions: permutable writes and the
shuffle barrier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memctrl import ShuffleBarrier
from repro.operators.reference import PermutableRegionConfig, PermutableWriteEngine


class TestPermutableRegionConfig:
    def test_basic(self):
        cfg = PermutableRegionConfig(base=0x1000, size_b=1024, object_b=16)
        assert cfg.capacity_objects == 64
        assert cfg.contains(0x1000)
        assert cfg.contains(0x13FF)
        assert not cfg.contains(0x1400)

    def test_rejects_oversized_objects(self):
        # Paper section 5.3: the 256 B object buffer bounds object size.
        with pytest.raises(ValueError, match="256"):
            PermutableRegionConfig(base=0, size_b=1024, object_b=512)

    def test_rejects_fractional_objects(self):
        with pytest.raises(ValueError):
            PermutableRegionConfig(base=0, size_b=100, object_b=16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PermutableRegionConfig(base=0, size_b=0, object_b=16)


class TestPermutableWriteEngine:
    def make(self, capacity=8):
        return PermutableWriteEngine(
            PermutableRegionConfig(base=0, size_b=capacity * 16, object_b=16)
        )

    def test_sequential_tail_placement(self):
        engine = self.make()
        addrs = [engine.write(f"obj{i}") for i in range(4)]
        assert addrs == [0, 16, 32, 48]

    def test_marked_address_ignored_for_placement(self):
        engine = self.make()
        addr = engine.write("a", marked_addr=112)  # last slot requested
        assert addr == 0  # placed at the tail regardless

    def test_marked_address_validated(self):
        engine = self.make()
        with pytest.raises(ValueError):
            engine.write("a", marked_addr=4096)

    def test_multiset_preserved_any_order(self):
        engine = self.make(capacity=16)
        payloads = ["x", "y", "z", "x"]
        for p in payloads:
            engine.write(p)
        assert sorted(engine.drain()) == sorted(payloads)

    def test_overflow_raises_and_flags(self):
        engine = self.make(capacity=2)
        engine.write("a")
        engine.write("b")
        with pytest.raises(MemoryError):
            engine.write("c")
        assert engine.overflowed

    def test_counters(self):
        engine = self.make()
        engine.write("a")
        engine.write("b")
        assert engine.objects_written == 2
        assert engine.bytes_written == 32
        assert engine.next_tail_addr == 32

    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=50))
    @settings(max_examples=50)
    def test_property_multiset_preserved(self, payloads):
        engine = PermutableWriteEngine(
            PermutableRegionConfig(base=0, size_b=max(16, len(payloads)) * 16, object_b=16)
        )
        for p in payloads:
            engine.write(p)
        assert sorted(engine.drain()) == sorted(payloads)


def deliver_scalar(barrier, dest, size_b):
    barrier.deliver(dest, size_b)


def deliver_bulk(barrier, dest, size_b):
    """The same delivery through ``deliver_all``: a vector of ``dest + 1``
    sizes, zero except at ``dest`` (too long when ``dest`` is out of range)."""
    sizes = np.zeros(dest + 1, dtype=np.int64)
    sizes[dest] = size_b
    barrier.deliver_all(sizes)


class TestShuffleBarrier:
    @staticmethod
    def announced(num_vaults, sizes, seal=True):
        barrier = ShuffleBarrier(num_vaults)
        barrier.announce_all(np.asarray(sizes, dtype=np.int64))
        if seal:
            barrier.seal()
        return barrier

    def test_protocol_happy_path(self):
        barrier = self.announced(2, [[0, 64], [0, 32]])
        assert barrier.expected_bytes(1) == 96
        assert barrier.completion_vector() == (True, False)
        barrier.deliver(1, 64)
        barrier.deliver(1, 32)
        assert barrier.all_complete()
        assert barrier.completion_vector() == (True, True)

    def test_bulk_delivery_retires_every_vault(self):
        barrier = self.announced(3, [[8, 0, 16], [8, 0, 0]])
        barrier.deliver_all([16, 0])  # vault 2 gets nothing yet
        assert barrier.completion_vector() == (True, True, False)
        barrier.deliver_all([0, 0, 16])
        assert barrier.all_complete()

    @pytest.mark.parametrize("deliver", [deliver_scalar, deliver_bulk])
    def test_delivery_checks(self, deliver):
        unsealed = self.announced(2, [[0, 16], [0, 0]], seal=False)
        with pytest.raises(RuntimeError):
            deliver(unsealed, 1, 16)  # before seal
        barrier = self.announced(2, [[0, 16], [0, 0]])
        with pytest.raises(ValueError):
            deliver(barrier, 1, -1)  # negative size
        with pytest.raises(ValueError):
            deliver(barrier, 5, 16)  # vault out of range
        deliver(barrier, 1, 16)
        with pytest.raises(ValueError, match="vault 1 received 17 bytes"):
            deliver(barrier, 1, 1)  # over-delivery

    def test_bulk_over_delivery_names_first_vault(self):
        barrier = self.announced(3, [[8, 8, 8]])
        with pytest.raises(ValueError, match="vault 1 received 9 bytes"):
            barrier.deliver_all([8, 9, 9])

    def test_announce_after_seal_rejected(self):
        barrier = ShuffleBarrier(2)
        barrier.seal()
        with pytest.raises(RuntimeError):
            barrier.announce_all(np.array([[0, 16], [0, 0]]))

    def test_double_announce_rejected(self):
        barrier = self.announced(2, [[0, 16], [0, 0]], seal=False)
        with pytest.raises(ValueError):
            barrier.announce_all(np.array([[0, 32], [0, 0]]))

    def test_vault_range_checked(self):
        barrier = ShuffleBarrier(2)
        with pytest.raises(ValueError):
            barrier.announce_all(np.zeros((1, 6), dtype=np.int64))
        with pytest.raises(ValueError):
            barrier.deliver(9, 0)

    def test_incomplete_until_all_vaults(self):
        barrier = self.announced(3, np.full((3, 3), 8))
        for dst in range(3):
            assert not barrier.all_complete()
            barrier.deliver(dst, 24)
        assert barrier.all_complete()
