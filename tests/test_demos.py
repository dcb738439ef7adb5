import hashlib
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout; a change that moves these bytes says so
DEMO_STDOUT = {
    "01_annulus_radial_bounds.py":
        "2246ceb0edd69bf5d545da1f31c9c9fda71c572430acd83f68e92ba8cfe5af9a",
    "02_lower_bound_configurations.py":
        "b895045cd6ba6747d0b1c0a363fef8717572a326b4f1c57e91010a7e4d50fbf1",
    "03_exact_solver.py":
        "4af008e30e83e8e645a82831364ae6be573a6245a5a9ff7011ac615c035e7290",
    "04_hexagonal_colorings.py":
        "aa11fbac99ab06f1fac2e34ba3a0f8c0fd5b833fb4c52d6eeb8e63c470e0075c",
    "05_eight_coloring_optimum.py":
        "829dc3253707aabc0fdd90a7ea2d5548562fea1a6e651f4523c51e4d0469d109",
}


def test_every_demo_is_pinned():
    demos = [f for f in os.listdir(os.path.join(PKG_ROOT, "demos")) if f.endswith(".py")]
    assert sorted(demos) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_pinned(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(PKG_ROOT, "demos", demo)],
        capture_output=True,
        cwd=PKG_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(PKG_ROOT, "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]
