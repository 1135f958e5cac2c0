"""Tests for the vault-controller extensions: permutable writes and the
shuffle barrier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memctrl import (
    PermutableRegionConfig,
    PermutableWriteEngine,
    ShuffleBarrier,
)


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


class TestShuffleBarrier:
    def test_protocol_happy_path(self):
        barrier = ShuffleBarrier(num_vaults=2)
        barrier.announce(0, 1, 64)
        barrier.announce(1, 1, 32)
        barrier.announce(0, 0, 0)
        barrier.announce(1, 0, 0)
        barrier.seal()
        assert barrier.expected_bytes(1) == 96
        assert not barrier.vault_complete(1)
        barrier.deliver(1, 64)
        barrier.deliver(1, 32)
        assert barrier.vault_complete(1)
        assert barrier.all_complete()
        assert barrier.completion_vector() == (True, True)

    def test_deliver_before_seal_rejected(self):
        barrier = ShuffleBarrier(2)
        barrier.announce(0, 1, 16)
        with pytest.raises(RuntimeError):
            barrier.deliver(1, 16)

    def test_announce_after_seal_rejected(self):
        barrier = ShuffleBarrier(2)
        barrier.seal()
        with pytest.raises(RuntimeError):
            barrier.announce(0, 1, 16)

    def test_over_delivery_rejected(self):
        barrier = ShuffleBarrier(2)
        barrier.announce(0, 1, 16)
        barrier.seal()
        barrier.deliver(1, 16)
        with pytest.raises(ValueError):
            barrier.deliver(1, 1)

    def test_double_announce_rejected(self):
        barrier = ShuffleBarrier(2)
        barrier.announce(0, 1, 16)
        with pytest.raises(ValueError):
            barrier.announce(0, 1, 32)

    def test_vault_range_checked(self):
        barrier = ShuffleBarrier(2)
        with pytest.raises(ValueError):
            barrier.announce(0, 5, 16)
        with pytest.raises(ValueError):
            barrier.vault_complete(9)

    def test_incomplete_until_all_vaults(self):
        barrier = ShuffleBarrier(3)
        for src in range(3):
            for dst in range(3):
                barrier.announce(src, dst, 8)
        barrier.seal()
        for dst in range(3):
            assert not barrier.all_complete()
            barrier.deliver(dst, 24)
        assert barrier.all_complete()
