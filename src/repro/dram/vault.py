"""Vault memory: 8 banks behind an FR-FCFS scheduler and a shared data bus.

The vault controller scheduler implements First-Ready, First-Come
First-Served over a bounded reorder window (paper section 4.1.2 notes
that such windows are too short to recover row locality from interleaved
shuffle traffic -- the event model lets us demonstrate exactly that).

The shared TSV data bus enforces the vault's 8 GB/s peak: each access
occupies the bus for ``size / peak_bw`` after its bank completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config.dram import DramTiming, HmcGeometry
from repro.dram.bank import Bank, BankStats


@dataclass(frozen=True)
class VaultRequest:
    """One memory request addressed to this vault."""

    arrival_ns: float
    addr: int  # vault-local byte offset
    size_b: int
    is_write: bool

    def __post_init__(self) -> None:
        if self.addr < 0 or self.size_b <= 0:
            raise ValueError("bad request geometry")


@dataclass
class VaultStats:
    """Aggregated statistics across the vault's banks plus bus activity."""

    bank: BankStats = field(default_factory=BankStats)
    requests: int = 0
    bus_bytes: int = 0
    last_completion_ns: float = 0.0
    first_arrival_ns: Optional[float] = None

    @property
    def activations(self) -> int:
        return self.bank.activations

    @property
    def row_hit_rate(self) -> Optional[float]:
        return self.bank.row_hit_rate

    def achieved_bw_bps(self) -> Optional[float]:
        if self.first_arrival_ns is None or self.last_completion_ns <= self.first_arrival_ns:
            return None
        window_s = (self.last_completion_ns - self.first_arrival_ns) * 1e-9
        return self.bus_bytes / window_s


class VaultMemory:
    """Event-accurate model of one vault (banks + scheduler + bus)."""

    def __init__(
        self,
        geometry: HmcGeometry,
        timing: DramTiming,
        scheduler_window: int = 16,
    ) -> None:
        if scheduler_window < 1:
            raise ValueError("scheduler window must be >= 1")
        self._geo = geometry
        self._timing = timing
        self._window = scheduler_window
        self._banks: List[Bank] = [
            Bank(timing=timing, row_size_b=geometry.row_size_b)
            for _ in range(geometry.banks_per_vault)
        ]
        self._bus_free_ns = 0.0
        self.stats = VaultStats()

    @property
    def banks(self) -> List[Bank]:
        return self._banks

    @property
    def scheduler_window(self) -> int:
        return self._window

    def _locate(self, addr: int) -> Tuple[int, int]:
        """Vault-local address -> (bank, row)."""
        global_row = addr // self._geo.row_size_b
        bank = global_row % self._geo.banks_per_vault
        row = global_row // self._geo.banks_per_vault
        return bank, row

    def _split_rows(self, req: VaultRequest) -> List[Tuple[int, int, int]]:
        """Split a request at row boundaries -> [(bank, row, size), ...]."""
        pieces = []
        addr, remaining = req.addr, req.size_b
        row_size = self._geo.row_size_b
        while remaining > 0:
            bank, row = self._locate(addr)
            in_row = min(remaining, row_size - addr % row_size)
            pieces.append((bank, row, in_row))
            addr += in_row
            remaining -= in_row
        return pieces

    def run_trace(self, requests: List[VaultRequest]) -> float:
        """Serve a request trace with FR-FCFS scheduling.

        Requests are considered in arrival order; within the leading
        ``scheduler_window`` pending requests, one whose first piece hits
        an open row is prioritised (first-ready), otherwise the oldest
        request is served (FCFS).  Returns the completion time of the last
        request.
        """
        pending = sorted(requests, key=lambda r: r.arrival_ns)
        now_ns = 0.0
        while pending:
            # The scheduler reorders among requests that have arrived by
            # the time the controller becomes free; service backlog (the
            # completion clock) is what fills the window.
            now_ns = max(now_ns, pending[0].arrival_ns)
            window = [r for r in pending[: self._window] if r.arrival_ns <= now_ns]
            if not window:
                window = [pending[0]]
            chosen = None
            for req in window:
                bank_idx, row = self._locate(req.addr)
                if self._banks[bank_idx].is_open(row):
                    chosen = req
                    break
            if chosen is None:
                chosen = window[0]
            pending.remove(chosen)
            completion = self._serve(chosen, now_ns)
            now_ns = max(now_ns, completion)
        return self.stats.last_completion_ns

    def _serve(self, req: VaultRequest, now_ns: float) -> float:
        start_ns = max(now_ns, req.arrival_ns)
        if self.stats.first_arrival_ns is None:
            self.stats.first_arrival_ns = req.arrival_ns
        completion = start_ns
        for bank_idx, row, size in self._split_rows(req):
            bank_done = self._banks[bank_idx].serve(start_ns, row, size, req.is_write)
            # The shared bus transfers the piece after the bank produces it.
            bus_start = max(bank_done, self._bus_free_ns)
            transfer_ns = size / self._geo.vault_peak_bw_bps * 1e9
            self._bus_free_ns = bus_start + transfer_ns
            completion = max(completion, self._bus_free_ns)
        self.stats.requests += 1
        self.stats.bus_bytes += req.size_b
        self.stats.last_completion_ns = max(self.stats.last_completion_ns, completion)
        self._refresh_bank_totals()
        return completion

    def _refresh_bank_totals(self) -> None:
        total = BankStats()
        for bank in self._banks:
            total.merge(bank.stats)
        self.stats.bank = total
