"""Every shipped config still writes what tests/data pins for it.

The numbers (verdict values and every CSV column) must agree within 1e-12
relative wherever the run is made.  The output files' sha256 must agree
too, but only where numpy's version and the machine are the recorded ones:
elsewhere libm and SIMD kernels may round the last bit differently.
tests/pin_outputs.py rewrites the pinned files.
"""

import json
import math
import os

import pytest

import pin_outputs
from weilfield.harness.config import EXPERIMENTS

REL = 1e-12


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)
    return got == want


@pytest.mark.parametrize("name", pin_outputs.shipped())
def test_shipped_config_reproduces_its_pinned_outputs(name):
    with open(os.path.join(pin_outputs.DATA, f"{name}.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = pin_outputs.record(name)
    assert got["verdicts"].keys() == pinned["verdicts"].keys()
    for key, want in pinned["verdicts"].items():
        assert _same(got["verdicts"][key], want), (key, got["verdicts"][key], want)
    assert got["tables"].keys() == pinned["tables"].keys()
    for file, columns in pinned["tables"].items():
        assert got["tables"][file].keys() == columns.keys(), file
        for col, want in columns.items():
            have = got["tables"][file][col]
            assert len(have) == len(want), (file, col)
            bad = [i for i, (a, b) in enumerate(zip(have, want)) if not _same(a, b)]
            assert not bad, (file, col, bad[0], have[bad[0]], want[bad[0]])
    assert got["sha256"].keys() == pinned["sha256"].keys()
    recorded = (pinned["numpy"], pinned["machine"])
    if (got["numpy"], got["machine"]) != recorded:
        pytest.skip(f"hashes recorded with numpy {recorded[0]} on {recorded[1]}, "
                    f"not numpy {got['numpy']} on {got['machine']}")
    assert got["sha256"] == pinned["sha256"]


def test_every_experiment_has_a_pinned_config():
    # so the pins, and CI's twice-run loop over configs/, cover every command
    found = set()
    for name in pin_outputs.shipped():
        with open(os.path.join(pin_outputs.CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
            found.add(json.load(fh)["experiment"])
    assert found == set(EXPERIMENTS)
