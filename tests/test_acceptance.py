"""Release gate: the twelve acceptance checks, one test per criterion.

Each test prints its own pass/fail line and asserts the criterion.  Criterion
9 currently fails by design of the check itself: its nudge-size bound
sin(2*arcsin(eps/2)) is strictly below the geometric minimum nudge that any
shaping/redistribution/scale/nudge decomposition can use at distance eps
(the minimum ratio is sin(2*arcsin(eps))), so the sub-check is unattainable
and we let the test stay red rather than weaken the bound.  See the README.
"""

import sys

import pytest

from starclab import acceptance, cli


def _run(index: int) -> dict:
    result = acceptance.CRITERIA[index - 1]()
    print(acceptance.status_line(index, result), file=sys.stderr)
    return result


def test_criterion_01_metric_axioms():
    result = _run(1)
    assert result["passed"], result["details"]


def test_criterion_02_landmark_distances():
    result = _run(2)
    assert result["passed"], result["details"]


def test_criterion_03_oracle_equivalence():
    result = _run(3)
    assert result["passed"], result["details"]


def test_criterion_04_model_invariance():
    result = _run(4)
    assert result["passed"], result["details"]


def test_criterion_05_rescaling_identities():
    result = _run(5)
    assert result["passed"], result["details"]


def test_criterion_06_discount_certificates():
    result = _run(6)
    assert result["passed"], result["details"]


def test_criterion_07_transition_certificates():
    result = _run(7)
    assert result["passed"], result["details"]


def test_criterion_08_perturbation_certificates():
    result = _run(8)
    assert result["passed"], result["details"]


def test_criterion_09_decomposition_round_trip():
    # Expected to fail: the recomposition sub-check passes, but the stated
    # nudge bound is below the geometric minimum for every nonzero distance.
    result = _run(9)
    assert result["passed"], result["details"]


def test_criterion_10_checker_fidelity():
    result = _run(10)
    assert result["passed"], result["details"]


def test_criterion_11_optimality_witness():
    result = _run(11)
    assert result["passed"], result["details"]


def test_criterion_12_soundness_zero_case():
    result = _run(12)
    assert result["passed"], result["details"]


def test_run_criterion_records_elapsed_seconds():
    # Every criterion times itself; criterion 2 is cheap.
    result = acceptance.criterion_2()
    assert isinstance(result["elapsed_s"], float)
    assert 0.0 <= result["elapsed_s"] < 60.0
    assert result["passed"]


def test_a_raising_or_slow_criterion_fails_and_the_suite_goes_on(monkeypatch, capsys):
    @acceptance.criterion("raises")
    def broken(failures):
        raise RuntimeError("boom")

    @acceptance.criterion("slow", budget_s=0.0)
    def slow(failures):
        return "nothing checked"

    result = broken()
    assert set(result) == {"name", "passed", "details", "elapsed_s"}
    assert not result["passed"]
    monkeypatch.setattr(acceptance, "CRITERIA", [broken, acceptance.criterion_2, slow])
    assert cli.main(["suite", "acceptance"]) == cli.EXIT_ACCEPTANCE
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] criterion  1: raises — 1 failed, ")
    assert lines[0].endswith(": raised RuntimeError: boom")
    assert lines[1].startswith("[PASS] criterion  2: landmark distances")
    assert lines[2].startswith("[FAIL] criterion  3: slow — nothing checked, 1 failed, ")
    assert "over its 0s budget" in lines[2]
    assert lines[3:] == ["1/3 criteria passed"]
