"""The committed whole-result fingerprint (``tools/fingerprint.py``).

Every deterministic cell of the fingerprint grid must reproduce the
digests in ``tests/data/fingerprint.json`` bit for bit, and the check
must be sharp enough to see a one-ulp change in a contention factor.
"""

import importlib.util
import math
from pathlib import Path

from repro.sim.contention import DEFAULT_CONTENTION

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "fingerprint_tool", REPO_ROOT / "tools" / "fingerprint.py"
)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_every_cell_matches_the_committed_fingerprint():
    diffs = fingerprint.differences(fingerprint.load(), fingerprint.compute())
    assert diffs == [], "\n".join(
        f"cell {name}: first differing field {field}" for name, field in diffs
    )


def test_one_ulp_contention_change_fails_the_check(monkeypatch):
    cell = "muri-s/trace1"
    factor = DEFAULT_CONTENTION.factors[2]
    monkeypatch.setitem(
        DEFAULT_CONTENTION.factors, 2, math.nextafter(factor, math.inf)
    )
    expected = {cell: fingerprint.load()[cell]}
    diffs = fingerprint.differences(expected, fingerprint.compute([cell]))
    assert [name for name, _ in diffs] == [cell]


def test_differences_name_the_first_differing_field():
    expected = {
        "a": {"jcts": "1", "timeseries": "2"},
        "b": {"jcts": "1"},
        "c": {"jcts": "1"},
    }
    actual = {
        "a": {"jcts": "1", "timeseries": "3"},
        "b": {"jcts": "1"},
        "d": {"jcts": "1"},
    }
    assert fingerprint.differences(expected, actual) == [
        ("a", "timeseries"), ("c", "<missing>"), ("d", "<unexpected>"),
    ]
