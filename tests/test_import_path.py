"""Importing the package leaves the FEM layer, and with it scipy, unloaded."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.linalg
import scipy.sparse.linalg

import reftaylor
import reftaylor.fem as fem

SRC = str(Path(reftaylor.__file__).resolve().parent.parent)

PROBE = textwrap.dedent(
    """
    import sys
    import reftaylor, reftaylor.cli, reftaylor.expansion, reftaylor.simplex

    def loaded():
        return sorted(m for m in sys.modules
                      if m == "reftaylor.fem" or m == "scipy" or m.startswith("scipy."))

    assert not loaded(), loaded()
    from reftaylor import sine_problem
    assert "reftaylor.fem" in sys.modules
    assert sine_problem is sys.modules["reftaylor.fem"].sine_problem
    print("ok")
    """
)


def test_fem_layer_loads_on_first_use():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"

    for name in fem.__all__:
        assert getattr(reftaylor, name) is getattr(fem, name)
        assert name in dir(reftaylor)
    with pytest.raises(AttributeError, match="no_such_name"):
        reftaylor.no_such_name

    # the benchmark's tracer replaces the solvers where fem binds them
    assert vars(fem)["lu_factor"] is scipy.linalg.lu_factor
    assert vars(fem)["lu_solve"] is scipy.linalg.lu_solve
    assert vars(fem)["cg"] is scipy.sparse.linalg.cg
