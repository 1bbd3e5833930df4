"""Golden `deform --json` records: every experiment kind that applies to a
catalog algebra or preset, at scales 0.05, 0.3 and 2.0, seeds 0-7.

``golden_deform.json`` holds one case per line: the argv after ``deform``,
the exit code and the parsed output lines (records, or the one refusal).
Seeds, convergence flags, iteration counts, exit codes and refusal messages
must match exactly; floats to a relative 1e-9, so that a refactor which
reorders float operations keeps its records, and one that moves an answer
does not."""

import json
import math
from pathlib import Path

import pytest

from liedeform.cli import run

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_deform.json").read_text())


def mismatches(got, want, where="") -> list:
    """Where ``got`` differs from ``want``: floats by a relative 1e-9, every
    other value (ints, bools, strings, null) exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return ([] if math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
                else [f"{where}: {got!r} != {want!r}"])
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k],
                                                    f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    # exact, and of the same type: True must not pass for 1, nor 1 for 1.0
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def test_golden_cases_cover_every_applicable_kind():
    kinds = {(case["argv"][1], case["argv"][3]) for case in GOLDEN}
    assert len(kinds) == 12 and len(GOLDEN) == 36
    assert {case["argv"][-2] for case in GOLDEN} == {"0.05", "0.3", "2.0"}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_deform_matches_golden(capsys, case):
    code = run(["deform", *case["argv"]])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == case["code"]
    got = [json.loads(line) for line in captured.out.splitlines()]
    assert mismatches(got, case["records"]) == []


def test_float_comparison_is_relative():
    assert mismatches([{"r": 1.0, "n": None}],
                      [{"r": 1.0 + 1e-12, "n": None}]) == []
    assert mismatches([1.0], [1.0 + 1e-8]) != []
    assert mismatches([0.0], [1e-300]) != []
    assert mismatches([1], [1.0]) != [] and mismatches([True], [1]) != []
