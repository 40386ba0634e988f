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

LOADED = textwrap.dedent(
    """
    import sys

    def loaded():
        return sorted(m for m in sys.modules
                      if m == "reftaylor.fem" or m == "scipy" or m.startswith("scipy."))
    """
)


def _probe(code, *args):
    """Run code after LOADED in a fresh interpreter; returns its stripped stdout."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", LOADED + textwrap.dedent(code), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_fem_layer_loads_on_first_use():
    stdout = _probe(
        """
        import reftaylor, reftaylor.cli, reftaylor.expansion, reftaylor.simplex
        assert not loaded(), loaded()
        from reftaylor import sine_problem
        assert "reftaylor.fem" in sys.modules
        assert sine_problem is sys.modules["reftaylor.fem"].sine_problem
        print("ok")
        """
    )
    assert stdout == "ok"

    for name in fem.__all__:
        assert getattr(reftaylor, name) is getattr(fem, name)
        assert name in dir(reftaylor)
    with pytest.raises(AttributeError, match="no_such_name"):
        reftaylor.no_such_name

    # the benchmark's tracer replaces the solvers where fem binds them
    assert vars(fem)["lu_factor"] is scipy.linalg.lu_factor
    assert vars(fem)["lu_solve"] is scipy.linalg.lu_solve
    assert vars(fem)["cg"] is scipy.sparse.linalg.cg


def test_savings_command_leaves_scipy_unloaded(tmp_path):
    # mesh_savings lives in the simplex layer, so the savings study needs no fem
    out = tmp_path / "savings.csv"
    stdout = _probe(
        """
        from reftaylor.cli import run_main
        argv = ["savings", "--eps", "1e-2,1e-4", "--dim", "2", "--output", sys.argv[1]]
        assert run_main(argv) == 0
        assert not loaded(), loaded()
        print("ok")
        """,
        str(out),
    )
    assert stdout == f"wrote 2 rows to {out}\nok"
    assert out.read_text().startswith("eps,h_classical,h_corrected,ratio,node_factor\n")
