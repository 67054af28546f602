"""Negative controls: configs that drive named CLI checks to FAIL.

A PASS line is a measurement only if some input turns it into FAIL. Each
config below makes exactly the named checks fail, and the command exits 1
with every other check still printed.
"""

import json

import pytest

from schauderlab.cli_reports import SPECS, main

CONTROLS = [
    # the saddle grows like |x|^2, above a growth tag of 1.5, and its
    # detected degree 2 exceeds floor(1.5)
    pytest.param(
        {"command": "liouville", "params": {"gamma": 1.5}},
        {"growth_tag_verified", "degree_within_growth_tag"},
        id="liouville-growth-tag-below-field",
    ),
    # 33 -> 49 nodes is not a halving of h, so the error ratio reads 2.25,
    # not the 4 of second order
    pytest.param(
        {"command": "solve", "params": {"resolutions": [33, 49]}},
        {"manufactured_convergence_order"},
        id="solve-ladder-not-halving",
    ),
    # e^{x} sin(y) grows faster than any polynomial, but no window slope
    # reaches a growth tag of 100, so growth is not rejected
    pytest.param(
        {"command": "liouville", "params": {"generator": "counterexample", "gamma": 100}},
        {"superpolynomial_growth_rejected"},
        id="counterexample-growth-tag-too-high",
    ),
]


# PASS/FAIL names that no config above drives to FAIL yet; each one still
# has to earn a control or become OBSERVED.
NO_CONTROL_YET = (
    "exact_discrete_harmonic",
    "no_spike_all_instances",
    "fitted_decay_superlinear",
    "harmonic_residual_gate",
    "degree_undetected",
    "singular_family_threshold_exponent",
    "blowup_seminorm_normalized",
    "blowup_growth_exponent",
    "approximation_h1_decreasing",
    "approximation_l2_bound",
)


def test_every_declared_check_has_a_control_or_is_listed():
    declared = [name for spec in SPECS.values() for name in spec.checks]
    controlled = set().union(*(control.values[1] for control in CONTROLS))
    assert len(declared) == len(set(declared))
    assert set(declared) == controlled | set(NO_CONTROL_YET)
    assert not controlled & set(NO_CONTROL_YET)


@pytest.mark.parametrize("spec, failing", CONTROLS)
def test_control_fails_exactly_the_named_checks(tmp_path, capsys, spec, failing):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, **spec}))
    out = tmp_path / "r"
    assert main([spec["command"], "--config", str(path), "--out", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed == (out / "verdict.txt").read_text().splitlines()
    statuses = {line.split()[1].rstrip(":"): line.split()[0] for line in printed}
    assert {name for name, status in statuses.items() if status == "FAIL"} == failing


# A FAIL line states what was measured and what the gate asked for, so it
# never reads as the gate holding.
FAIL_LINES = [
    pytest.param(
        CONTROLS[0].values[0],
        [
            "FAIL growth_tag_verified: max window slope 2.000, target <= gamma + 0.02 = 1.52",
            "FAIL degree_within_growth_tag: detected degree 2, target <= floor(gamma) = 1",
        ],
        id="liouville-growth-tag-below-field",
    ),
    pytest.param(
        CONTROLS[2].values[0],
        ["FAIL superpolynomial_growth_rejected: max window slope 22.72, target > gamma + 0.02 = 100.02"],
        id="counterexample-growth-tag-too-high",
    ),
]


@pytest.mark.parametrize("spec, lines", FAIL_LINES)
def test_fail_lines_state_measurement_and_target(tmp_path, capsys, spec, lines):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, **spec}))
    assert main([spec["command"], "--config", str(path), "--out", str(tmp_path / "r")]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("FAIL")] == lines
