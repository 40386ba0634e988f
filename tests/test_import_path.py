"""Importing the package leaves the FEM layer, and with it scipy, unloaded."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.linalg

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


def test_lazy_fem_names_are_the_fem_layer_public_names():
    assert set(reftaylor._FEM_NAMES) == set(fem.__all__)


def test_fem_runs_cg_without_scipy_sparse_linalg():
    # scipy.sparse.linalg loads its iterative, eigen and SuperLU solvers, none of them used
    stdout = _probe(
        """
        import inspect
        import reftaylor.fem as fem
        assert "scipy.sparse.linalg" not in loaded(), loaded()
        assert inspect.isfunction(vars(fem)["cg"]) and fem.cg.__module__ == "reftaylor.fem"
        print("ok")
        """
    )
    assert stdout == "ok"


def test_cli_imports_load_only_numpy_beyond_the_standard_library():
    # the import set a CLI start-up pays for; modules the interpreter loaded
    # at start-up (site hooks) are not the package's
    stdout = _probe(
        """
        before = set(sys.modules)
        import reftaylor, reftaylor.cli, reftaylor.expansion, reftaylor.simplex
        top = {m.partition(".")[0] for m in set(sys.modules) - before}
        print(sorted(top - set(sys.stdlib_module_names)))
        """
    )
    assert stdout == "['numpy', 'reftaylor']"


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
