"""Determinism audit for the suite subsystem: identical parameters must
produce byte-identical relations and identical store content digests in
every fresh interpreter.

Mirrors ``test_faults_determinism``: generation is a pure function of
(family params, seed), and the content-addressed cache key is a pure
function of the suite's declared identity -- never of process state,
dict iteration order, or interpreter hash randomization (subprocesses
run with distinct ``PYTHONHASHSEED`` values to prove it).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.service.store import digest_payload
from repro.suites import (
    SUITES,
    CompositeKeyFamily,
    SkewFamily,
    StringKeyFamily,
    SuitePoint,
    WindowedFamily,
)
from repro.suites.runner import suite_store_payload

ROOT = Path(__file__).resolve().parents[1]

FAMILY_TYPES = (CompositeKeyFamily, StringKeyFamily, WindowedFamily, SkewFamily)

#: One subprocess probe: relation digests per family + store key digests
#: per suite + a small grid's record export digest.
_PROBE = r"""
import hashlib, json
from repro.suites import (
    SUITES, CompositeKeyFamily, SkewFamily, StringKeyFamily, SuiteRun,
    SuitePoint, WindowedFamily,
)
from repro.suites.runner import suite_store_payload
from repro.service.store import digest_payload

relations = {}
for family_type in (
    CompositeKeyFamily, StringKeyFamily, WindowedFamily, SkewFamily
):
    family = family_type()
    relations[family.family] = {
        name: hashlib.sha256(rel.data.tobytes()).hexdigest()
        for name, rel in sorted(family.tables(17).items())
    }
store_keys = {
    name: digest_payload(suite_store_payload(SuitePoint(name, "cpu")))
    for name in SUITES
}
records = SuiteRun(suites=("skew-hotspot",), systems=("cpu",)).run().to_json()
print(json.dumps({
    "relations": relations,
    "store_keys": store_keys,
    "records_digest": hashlib.sha256(records.encode()).hexdigest(),
}, sort_keys=True))
"""


def probe(hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": hash_seed,
            "REPRO_STORE": "",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCrossInterpreterDeterminism:
    def test_two_fresh_interpreters_identical(self):
        # Distinct hash seeds: any reliance on dict/set iteration order
        # or string hashing in generation or key construction would
        # diverge here.
        assert probe("1") == probe("2")

    def test_subprocess_matches_this_process(self):
        seen = probe("0")
        for family_type in FAMILY_TYPES:
            family = family_type()
            digests = {
                name: hashlib.sha256(rel.data.tobytes()).hexdigest()
                for name, rel in sorted(family.tables(17).items())
            }
            assert digests == seen["relations"][family.family]
        for name in SUITES:
            digest = digest_payload(suite_store_payload(SuitePoint(name, "cpu")))
            assert digest == seen["store_keys"][name]


class TestKeyIdentity:
    def test_store_key_covers_generator_identity(self):
        base = digest_payload(suite_store_payload(SuitePoint("skew-mild", "cpu")))
        assert base != digest_payload(
            suite_store_payload(SuitePoint("skew-mild", "cpu", seed=18))
        )
        assert base != digest_payload(
            suite_store_payload(SuitePoint("skew-mild", "cpu", model_scale=50.0))
        )
        assert base != digest_payload(
            suite_store_payload(SuitePoint("skew-mild", "mondrian"))
        )
        assert base != digest_payload(
            suite_store_payload(SuitePoint("skew-hotspot", "cpu"))
        )

    def test_families_seeded_not_global(self):
        # Generation must not consult numpy's global RNG state.
        import numpy as np

        np.random.seed(1)
        first = {
            f().family: f().tables(17) for f in FAMILY_TYPES
        }
        np.random.seed(999)
        second = {
            f().family: f().tables(17) for f in FAMILY_TYPES
        }
        for family, tables in first.items():
            for name, rel in tables.items():
                assert (
                    rel.data.tobytes() == second[family][name].data.tobytes()
                )
