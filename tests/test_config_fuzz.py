"""Random JSON configs through the command line, in-process.

Every config must end in one of two ways: exit 0 or 1 with at least one
verdict line and a strict-JSON summary.json, or exit 2 with no output
directory. An uncaught exception fails the test. Each key's value comes
from a small pool of valid values or, one time in six, of invalid ones
(out of range, wrong type, a misspelt key), so that about two configs in
five run. The grids stay at m <= 33 and the ensembles at 3 members, so that
each run takes well under a second. At m <= 33 every degiorgi ladder is
finer than 4h and every bootstrap radius chain too, so those two commands
are tested on their rejections only.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from schauderlab.cli_reports import SPECS, main

# key: (valid values, invalid values)
_POOLS = {
    "seed": ([0, 1, 2, 7], ["1", None, True]),
    "resolution": ([9, 15, 17, 25, 33], [1, 3, 5, 32, "33", None]),
    "resolutions": ([[5, 9], [9, 17], [9, 17, 33]], [[33, 17], [9, 9], [8, 16], [17], [], "17"]),
    "ensemble": ([1, 2, 3], [0, -1, 1.5, "2", None]),
    "r": ([0.1, 0.3, 0.5], [0, -0.5, 0.99, True]),
    "R": ([0.8, 0.95, 1.0], [0.2, 1.2, "1"]),
    "p": ([1.5, 2.0, 3.0], [0.8, 1, "2"]),
    "q": ([3, 4.0, 6.0], [1, 2]),
    "k_max": ([3, 4], [-1, 2, 3.5]),
    "generator": (["saddle", "linear", "constant", "counterexample"], ["sadle", 1]),
    "a": ([(1.0, 0.0), (0.5, 0.5)], [(1.0, 1.0), (0.0, 0.0), "a"]),
    "b": ([(0.0, 1.0), (0.5, -0.5)], [(1.0, 1.0), None]),
    "gamma": ([None, 0.5, 1.5, 2.0, 10], [-1, "2"]),
    "scales": ([None, [1, 2, 4, 8], [8, 4, 2, 1], [1, 2, 3, 5, 8]], [[1, 1, 2, 4], [0.5, 1], [1, 2, 4, -8]]),
    "s": ([0.25, 0.5, 1.0, 1.9], [0, 2.5]),
    "alpha": ([0.25, 0.5, 0.9], [0, 1.0, "0.5"]),
    "steps": ([1, 2, 3], [0]),
    "k": ([2, 3], [1, 4]),
    "eps_schedule": ([[0.3, 0.2], [0.25, 0.15], [0.3, 0.25, 0.15]], [None, [0.1, 0.2], [], [0.4, 0.3]]),
    "typo": ([], [1]),
}

_ALWAYS = ("ensemble", "resolutions", "eps_schedule")


def _value(draw, key):
    valid, invalid = _POOLS[key]
    return draw(st.sampled_from(invalid if not valid or draw(st.integers(0, 5)) == 5 else valid))


@st.composite
def _configs(draw):
    command = draw(st.sampled_from(sorted(SPECS)))
    params = SPECS[command].params
    keys = draw(st.lists(st.sampled_from(list(params)), unique=True, max_size=3))
    # the defaults of these keys are too large or too slow for m <= 33
    keys += [key for key in _ALWAYS if key in params and key not in keys]
    if draw(st.integers(0, 9)) == 9:
        keys.append("typo")
    spec = {"command": command, "params": {key: _value(draw, key) for key in keys}}
    for key in ("seed", "resolution"):
        if key == "resolution" or draw(st.booleans()):
            spec[key] = _value(draw, key)
    return spec


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


@settings(max_examples=40, deadline=None)
@given(spec=_configs())
# a liouville slope at the machine floor is NaN, and a repeated radius
# would be a zero log-step
@example(spec={"command": "liouville", "resolution": 33, "params": {}})
@example(spec={"command": "liouville", "resolution": 33, "params": {"scales": [1, 1, 2, 4]}})
def test_random_config_exits_with_verdict_or_rejects_before_writing(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "cfg.json"), Path(tmp, "r")
        path.write_text(json.dumps(spec))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([spec["command"], "--config", str(path), "--out", str(out)])
        if rc == 2:
            assert not out.exists(), spec
            assert stderr.getvalue().startswith("configuration error"), spec
        else:
            assert rc in (0, 1), spec
            assert stdout.getvalue().startswith(("PASS ", "FAIL ", "OBSERVED ")), spec
            json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
