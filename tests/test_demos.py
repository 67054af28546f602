"""Every demo script runs to completion in a fresh interpreter, and prints
what it printed when its digest was recorded."""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.fixture(scope="module")
def run_demo(tmp_path_factory):
    """Run a demo once in a child process, from an empty working directory;
    later calls for the same demo return the first run's result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    @functools.cache
    def run(demo):
        return subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path_factory.mktemp(demo.stem),
            env=env, capture_output=True, text=True, timeout=300,
        )

    return run


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, run_demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# sha256 of each demo's stdout, recorded with these numpy and scipy versions;
# the last bits of a printed number may differ under others. The stdout does
# not depend on the working directory or on the BLAS thread count.
_DIGEST_VERSIONS = ("2.4.6", "1.17.1")
_DEMO_DIGESTS = {
    "01_grids_and_cutoffs": "d97f354d001e2b48a4c194458c426162433d62c5ff7a2b16b8c2ec98f27dfd1e",
    "02_difference_quotients": "ccdf8368139b06976230dbcc7a8ff72a34dfd4d15110ebee5e42924e99f0d776",
    "03_solving_the_equation": "fe93deeb15e7a1f696f127a37c5191fc9c0ebd43675a7d30914792d789c63bb5",
    "04_caccioppoli_inequality": "f463e3d7b5459cc824f9fd46f16240ff9af1617849176dcd755bbe60566598ef",
    "05_degiorgi_iteration": "58e62c9287535fb260a4d5963582efce30b9b5d253a0f0bffefe954f32274948",
    "06_liouville_scan": "54a22c71393b005eb7fc0c51cc2833767689e27f7d035968fc5d0e506d74bad2",
    "07_schauder_threshold": "ab2834ea5129f3c43789e02989eb8b4718e26824d8007d486296138461a451b8",
    "08_blowup_rescaling": "bc3c1a203390a2ce8375643aac01703ab76e01afdb24f45e6cec6f2b5361c777",
    "09_mollification": "bad57e39c5bf322fc8b43325a72f52e88678517fdd4cc0010302be3ccce2def4",
    "10_bootstrap_and_rescaling": "fa7f3fae1ad6ddce71b69594bd36a376e204078919d57567a0efd41b67119519",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_recorded_digest(demo, run_demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert (np.__version__, scipy.__version__) == _DIGEST_VERSIONS
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == _DEMO_DIGESTS[demo.stem]
