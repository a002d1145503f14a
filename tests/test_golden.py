"""Golden fingerprints of the outputs that no random stream enters.

tests/golden.json holds, for each case below and each of its columns, the
value at every 1000th node and the column's min and max.  A change that
moves any of them by more than 1e-11 fails here, so output drift is a
failing test rather than a note.  The cases draw nothing from a random
stream, so they do not depend on numpy keeping its streams stable across
versions (NEP 19).

The file is read next to this module and the configs from the repository,
so the test also runs against an installed package, from any directory.
To re-record after a change that moves numbers on purpose:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from pulseguard.runner import load_config, run_experiment

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"
GOLDEN = HERE / "golden.json"
EVERY = 1000
ATOL = 1e-11

CASES = {
    "fig1-memory-qsd": ("fig1", {}),
    "fig1-memory-me2": ("fig1", {"kind": "memory-me2"}),
    "fig1-chaotic": ("fig1", {"signal": {"family": "chaotic", "period": 0.02,
                                         "duration": 0.01, "area": 0.2}}),
    "fig1-none": ("fig1", {"signal": {"family": "none"}}),
    "fig4-none-defect": ("fig4", {"signal": {"family": "none"}, "with_defect": True}),
}


def fingerprint(name):
    """Each column of case `name`: its values at every EVERY-th node, its min and its max."""
    preset, overrides = CASES[name]
    table = run_experiment(load_config(CONFIGS / f"{preset}.json", workers=1, **overrides))
    return {column: {"nodes": values[::EVERY].tolist(), "min": float(values.min()),
                     "max": float(values.max())}
            for column, values in table.data.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_their_golden_fingerprints(name):
    expected = json.loads(GOLDEN.read_text())[name]
    actual = fingerprint(name)
    assert list(actual) == list(expected)
    for column, want in expected.items():
        got = actual[column]
        assert len(got["nodes"]) == len(want["nodes"])
        for key in ("nodes", "min", "max"):
            assert got[key] == pytest.approx(want[key], rel=0, abs=ATOL), (column, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    GOLDEN.write_text(json.dumps({name: fingerprint(name) for name in sorted(CASES)},
                                 indent=1) + "\n")
