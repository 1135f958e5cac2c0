"""Shared test configuration.

The persistent result store is environment-activated
(``REPRO_STORE``), and ``common.active_store()`` reads the variable on
every call -- so a developer who exported it for their own warm cache
would otherwise have the *test suite* replaying (possibly stale)
persisted results instead of simulating, and polluting their personal
store with test entries.  Every test runs with the store environment
scrubbed; tests that want a store opt in explicitly (fixtures or
``monkeypatch.setenv``).
"""

import pytest

from repro.experiments import common


@pytest.fixture(scope="session", autouse=True)
def _no_ambient_result_store():
    # Session-scoped so it precedes *every* fixture, including the
    # class-scoped experiment fixtures that run simulations at setup
    # (a function-scoped monkeypatch would be applied after those).
    mp = pytest.MonkeyPatch()
    mp.delenv(common.STORE_ENV, raising=False)
    yield
    mp.undo()
