"""Golden pins for the serialised spec tree.

``tests/fixtures/spec_json/`` holds the exact ``to_json()`` text of every
checked-in ``examples/configs/*.json`` that parses as a
:class:`~repro.specs.DetectorSpec` or :class:`~repro.specs.SweepSpec`,
and of ``DetectorSpec.default(scale="tiny", defense=m)`` for each
defense mode.  These bytes are load-bearing: the CLI names run
directories after a digest of them, and :class:`RunStore` compares a
run's stored ``spec.json`` against them before resuming.  A change to
the serialised form must therefore be deliberate, with these files
updated in the same change.
"""

import json
import os

import pytest

from repro.specs import DEFENSE_MODES, DetectorSpec, SweepSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "examples", "configs")
GOLDEN = os.path.join(ROOT, "tests", "fixtures", "spec_json")


def _config_spec(path: str):
    """The spec a config file parses as, or ``None`` for other shapes
    (a serve manifest)."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if "tenants" in raw:
        return None
    if "grid" in raw:
        return SweepSpec.from_json(path)
    return DetectorSpec.from_json(path)


def _cases() -> dict:
    cases = {}
    for name in sorted(os.listdir(CONFIGS)):
        if name.endswith(".json"):
            path = os.path.join(CONFIGS, name)
            cases[name] = lambda path=path: _config_spec(path)
    for mode in DEFENSE_MODES:
        cases[f"default-{mode}.json"] = (
            lambda mode=mode: DetectorSpec.default(scale="tiny", defense=mode))
    return cases


CASES = _cases()


def _expected(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_matches_golden(name):
    spec = CASES[name]()
    if spec is None:
        assert not os.path.exists(os.path.join(GOLDEN, name))
        return
    assert spec.to_json() == _expected(name)


def test_every_golden_file_has_a_case():
    pinned = {name for name, make in CASES.items() if make() is not None}
    assert set(os.listdir(GOLDEN)) == pinned
    assert len(pinned) == 9
