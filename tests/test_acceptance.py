"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the eleven one-line
verdicts; each line carries the criterion number, PASS or FAIL, and the wall
time against the stated budget.  Tolerances are part of the contract and are
asserted exactly as stated, never loosened to make a run green.
"""

import contextlib
import io
import math
import time

import numpy as np

from reftaylor.cli import EXIT_OK, run_main
from reftaylor.expansion import (
    SegmentBounds,
    expansion_weights,
    refined_expansion,
    remainder_integral,
    summation_identity_check,
    taylor_first_order,
)
from reftaylor.fem import assemble_and_solve, estimate_report, l2_norm_error, sine_problem
from reftaylor.fields import ScalarField
from reftaylor.interp1d import (
    ClassPParams,
    Interval,
    class_p_field,
    class_p_lower_envelope,
    class_p_sup_norms,
    compare_bounds,
    rate_for_beta,
)
from reftaylor.registry import lookup
from reftaylor.simplex import InterpBounds, MeshInterpolant, Simplex, mesh_savings, uniform_mesh


def _finish(num, label, start, budget, failures):
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f} s exceeds the {budget:g} s budget")
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {status} {label} ({elapsed:.2f} s)")
    assert not failures, f"criterion {num:02d}: " + " | ".join(failures[:6])


def _random_quadratic(rng, dim):
    """Random degree-<=2 polynomial with exact derivative callables."""
    sym = rng.uniform(-2.0, 2.0, (dim, dim))
    hess = sym + sym.T
    lin = rng.uniform(-2.0, 2.0, dim)
    const = rng.uniform(-2.0, 2.0)
    return ScalarField(
        dim,
        lambda pts: 0.5 * np.einsum("pi,ij,pj->p", pts, hess, pts) + pts @ lin + const,
        grad=lambda pts: pts @ hess + lin,
        hess=lambda pts: np.broadcast_to(hess, (len(pts), dim, dim)),
    ), hess


def test_criterion_01_weight_correctness():
    start, failures = time.perf_counter(), []
    for m in range(1, 65):
        weights = expansion_weights(m)
        expected = [1.0 / (2.0 * m)] + [1.0 / m] * (m - 1) + [1.0 / (2.0 * m)]
        if list(weights) != expected:
            failures.append(f"m={m}: weights differ from the end-halved profile")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-15:
            failures.append(f"m={m}: weights sum to {total!r}, not 1")
    _finish(1, "closed weights are end-halved averages summing to one", start, 1.0, failures)


def test_criterion_02_quadratic_exactness():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(20260819)
    for m in (1, 2, 3, 5):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            f, hess = _random_quadratic(rng, dim)
            a = rng.uniform(-1.0, 1.0, dim)
            h = rng.uniform(-1.0, 1.0, dim)
            if np.linalg.norm(h) < 1e-3:
                h = np.full(dim, 0.5)
            q = float(h @ hess @ h) / float(h @ h)
            rep = refined_expansion(f, a, h, m, bounds=SegmentBounds(q, q))
            gap = abs(rep.exact - rep.approx)
            if gap > 1e-12 * max(1.0, abs(rep.exact)):
                failures.append(f"m={m} dim={dim}: gap {gap:.3e} is not exact")
    _finish(2, "degree-two polynomials are reproduced exactly", start, 5.0, failures)


def _segment_bounds_exact(name, lo, hi, direction):
    """True derivative ranges of the 1D suite members along [lo, hi]."""
    if name == "exp1d":
        m2, big_m2 = math.exp(lo), math.exp(hi)
        d_lo, d_hi = math.exp(lo), math.exp(hi)
    elif name == "sin1d":
        peak = 1.0 if lo <= math.pi / 2.0 <= hi else max(math.sin(lo), math.sin(hi))
        m2, big_m2 = -peak, -min(math.sin(lo), math.sin(hi))
        d_lo, d_hi = math.cos(hi), math.cos(lo)
    elif name == "cubic1d":
        m2, big_m2 = 6.0 * lo, 6.0 * hi
        d_lo, d_hi = 3.0 * lo * lo, 3.0 * hi * hi
    else:
        raise AssertionError(name)
    if direction > 0:
        return SegmentBounds(m2, big_m2, d_lo, d_hi)
    return SegmentBounds(m2, big_m2, -d_hi, -d_lo)


def test_criterion_03_bound_containment_and_width_scaling():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(3)
    for name in ("exp1d", "sin1d", "cubic1d"):
        entry = lookup(name)
        f = entry.field()
        (box_lo, box_hi), = entry.box
        for _ in range(200):
            a = rng.uniform(box_lo, box_hi)
            b = rng.uniform(box_lo, box_hi)
            while abs(b - a) < 0.05:
                b = rng.uniform(box_lo, box_hi)
            h = b - a
            m = int(rng.integers(1, 9))
            seg = _segment_bounds_exact(name, min(a, b), max(a, b), h)
            rep = refined_expansion(f, [a], [h], m, bounds=seg)
            if not rep.bound_lo <= rep.remainder_eps <= rep.bound_hi:
                failures.append(
                    f"{name} m={m}: remainder {rep.remainder_eps:.3e} outside "
                    f"[{rep.bound_lo:.3e}, {rep.bound_hi:.3e}]"
                )
            base = taylor_first_order(f, [a], [h], bounds=seg)
            ratio = (rep.bound_hi - rep.bound_lo) / (base.bound_hi - base.bound_lo)
            if abs(ratio - 1.0 / (2.0 * m)) > 1e-14:
                failures.append(f"{name} m={m}: width ratio {ratio!r} is not 1/(2m)")
    _finish(3, "remainders stay enclosed and enclosures shrink like 1/(2m)",
            start, 10.0, failures)


def test_criterion_04_integral_oracle_equivalence():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(4)
    for name in ("exp1d", "sin1d", "quad1d", "cubic1d", "classP(beta=0.75)"):
        entry = lookup(name)
        f = entry.field()
        (box_lo, box_hi), = entry.box
        cases = [entry.segment]
        for _ in range(3):
            a = rng.uniform(box_lo, box_hi)
            b = rng.uniform(box_lo, box_hi)
            cases.append((np.array([min(a, b)]), np.array([abs(b - a) + 1e-3])))
        for a, h in cases:
            if a[0] + h[0] > box_hi:
                h = np.array([box_hi - a[0]])
                if h[0] <= 0:
                    continue
            for m in (1, 2, 3, 8):
                rep = refined_expansion(f, a, h, m)
                oracle = remainder_integral(f, a, h, m)
                gap = abs(oracle - (rep.exact - rep.approx))
                if gap > 1e-9:
                    failures.append(f"{name} m={m}: oracle differs by {gap:.3e}")
    _finish(4, "the integral oracle reproduces exact minus approx", start, 10.0, failures)


def test_criterion_05_summation_identity():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        coeffs = rng.uniform(-2.0, 2.0, m)
        amp, freq, phase, quad = rng.uniform(-1.0, 1.0, 4)

        def u(t, amp=amp, freq=freq, phase=phase, quad=quad):
            return amp * np.sin(2.0 * freq * t + phase) + quad * t**2 + 0.5

        lhs, rhs = summation_identity_check(coeffs, u)
        if abs(lhs - rhs) > 1e-9:
            failures.append(f"m={m}: sides differ by {abs(lhs - rhs):.3e}")
    _finish(5, "the tail-sum rearrangement identity balances", start, 5.0, failures)


def test_criterion_06_class_p_improvement():
    start, failures = time.perf_counter(), []
    iv = Interval(0.0, 1.0)
    for beta in (0.6, 0.75, 0.9, 1.0):
        rate = rate_for_beta(beta, iv)
        for forcing, slope in ((1.0, 0.0), (0.5, 0.0), (1.0, 0.2)):
            params = ClassPParams(rate=rate, forcing=forcing, slope_at_a=slope)
            f = class_p_field(params, iv)
            f1, f2 = class_p_sup_norms(params, iv)
            comp = compare_bounds(f, iv, f1, f2)
            if comp.refined > beta * comp.classical + 1e-12:
                failures.append(
                    f"beta={beta} forcing={forcing} slope={slope}: refined "
                    f"{comp.refined:.6e} exceeds beta * classical {beta * comp.classical:.6e}"
                )
            if comp.refined < 0.5 * comp.classical - 1e-12:
                failures.append(f"beta={beta}: refined fell below the half-classical floor")
    _finish(6, "the mixed bound beats the classical one by the advertised factor",
            start, 5.0, failures)


def test_criterion_07_class_p_lower_envelope():
    start, failures = time.perf_counter(), []
    iv = Interval(0.0, 1.0)
    grid = np.linspace(iv.a, iv.b, 1001)
    for beta in (0.6, 0.75, 0.9, 1.0):
        rate = rate_for_beta(beta, iv)
        for forcing, slope in ((1.0, 0.0), (0.5, 0.1), (1.0, 0.3)):
            params = ClassPParams(rate=rate, forcing=forcing, slope_at_a=slope)
            f = class_p_field(params, iv)
            values = f.value_at(grid.reshape(-1, 1))
            envelope = class_p_lower_envelope(params, iv, grid)
            worst = float(np.min(values - envelope))
            if worst < -1e-12:
                failures.append(f"beta={beta} forcing={forcing}: envelope above f by {-worst:.3e}")
    _finish(7, "family members sit above their exponential envelopes", start, 2.0, failures)


def _shrunk_random_simplex(rng, box):
    """Random nondegenerate simplex inside box with diameter <= 1."""
    box = np.asarray(box, dtype=float)
    dim = len(box)
    lo, span = box[:, 0], box[:, 1] - box[:, 0]
    while True:
        verts = lo + rng.random((dim + 1, dim)) * span
        try:
            s = Simplex(verts)
        except Exception:
            continue
        if s.volumes[0] < 1e-3 * s.mesh_size**dim:
            continue
        if s.mesh_size > 1.0:
            centroid = verts.mean(axis=0)
            s = Simplex(centroid + (verts - centroid) * (0.95 / s.mesh_size))
        return s


def test_criterion_08_simplex_interpolation_bounds():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(8)
    suite = ("exp1d", "cubic1d", "quad2d", "exp2d", "sinsin2d", "quad3d", "exp3d")
    for name in suite:
        entry = lookup(name)
        f = entry.field()
        for _ in range(2):
            s = _shrunk_random_simplex(rng, entry.box)
            bounds = InterpBounds(s.mesh_size, entry.d1_inf, entry.d2_inf)
            points = s.random_points(rng, 1000)
            exact = f.value_at(points)
            plain_err = np.max(np.abs(MeshInterpolant(s, f).values_at(points) - exact))
            star_err = np.max(np.abs(MeshInterpolant(s, f, True).values_at(points) - exact))
            if plain_err > bounds.classical or plain_err > bounds.refined:
                failures.append(f"{name}: plain error {plain_err:.3e} escapes a bound")
            if star_err > bounds.corrected:
                failures.append(f"{name}: corrected error {star_err:.3e} escapes its bound")
    for dim in (1, 2, 3):
        for _ in range(4):
            s = _shrunk_random_simplex(rng, [(-1.0, 1.0)] * dim)
            f, _ = _random_quadratic(rng, dim)
            points = s.random_points(rng, 250)
            exact = f.value_at(points)
            scale = max(1.0, float(np.max(np.abs(exact))))
            err = np.max(np.abs(MeshInterpolant(s, f, True).values_at(points) - exact))
            if err > 1e-10 * scale:
                failures.append(f"dim={dim}: corrected interpolant misses a quadratic by {err:.3e}")
    _finish(8, "simplex interpolants respect their bounds and quadratic exactness",
            start, 30.0, failures)


def test_criterion_09_fem_convergence():
    start, failures = time.perf_counter(), []
    sweeps = {1: (8, 16, 32, 64, 128), 2: (4, 8, 16, 32, 64)}
    for dim, subdivisions in sweeps.items():
        problem = sine_problem(dim)
        sizes, errors = [], []
        for k in subdivisions:
            mesh = uniform_mesh([(0.0, 1.0)] * dim, k)
            sol = assemble_and_solve(problem, mesh, "P1")
            if len(sol.dof_values) > 40_000:
                failures.append(f"dim={dim} k={k}: {len(sol.dof_values)} DOF exceeds 40k")
            rep = estimate_report(problem, mesh, "P1", math.pi, math.pi**2)
            lhs = rep.measured_solution_error
            rhs = problem.stability_factor * rep.measured_interp_error
            if lhs > rhs:
                failures.append(f"dim={dim} k={k}: quasi-optimality chain violated")
            if min(rep.cea_rhs_classical, rep.cea_rhs_refined) == rep.cea_rhs_classical:
                if abs(rep.cea_rhs_corrected - 0.5 * rep.cea_rhs_classical) > 1e-12 * rep.cea_rhs_classical:
                    failures.append(f"dim={dim} k={k}: corrected chain is not half the classical one")
            sizes.append(mesh.mesh_size)
            errors.append(l2_norm_error(sol, problem.exact_solution))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        if abs(slope - 2.0) > 0.1:
            failures.append(f"dim={dim}: L2 order {slope:.3f} is not 2.0 +- 0.1")
    _finish(9, "P1 solutions converge at order two inside the quasi-optimality chain",
            start, 120.0, failures)


def test_criterion_10_mesh_savings():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(10)
    for _ in range(25):
        eps = 10.0 ** rng.uniform(-8, -2)
        d2 = 10.0 ** rng.uniform(-1, 2)
        big_c = rng.uniform(1.0, 4.0)
        alpha = rng.uniform(0.1, 1.0)
        s = mesh_savings(eps, d2, big_c, alpha, 3)
        ratio = s["h_corrected"] / s["h_classical"]
        if abs(ratio - math.sqrt(2.0)) > 1e-15 * math.sqrt(2.0):
            failures.append(f"ratio {ratio!r} is not sqrt(2) to machine precision")
        if abs(s["node_factor"] - 2.0 ** -1.5) > 1e-15:
            failures.append(f"node factor {s['node_factor']!r} is not 2^-1.5")
        if abs(s["node_factor"] / 0.34 - 1.0) > 0.05:
            failures.append("node factor strays more than 5% from 0.34")
    _finish(10, "coarsening arithmetic yields sqrt(2) and the 0.35 node factor",
            start, 1.0, failures)


def test_criterion_11_cli_determinism(tmp_path):
    start, failures = time.perf_counter(), []
    runs = {
        "simplex": ["simplex", "--function", "exp2d", "--subdivisions", "1,2,4", "--seed", "5"],
        "fem": ["fem", "--dim", "1", "--subdivisions", "4,8,16", "--seed", "5"],
    }
    quiet = io.StringIO()
    for tag, args in runs.items():
        first = tmp_path / f"{tag}_a.csv"
        second = tmp_path / f"{tag}_b.csv"
        with contextlib.redirect_stdout(quiet):
            ok = run_main(args + ["--output", str(first)]) == EXIT_OK
            ok = ok and run_main(args + ["--output", str(second)]) == EXIT_OK
        if not ok:
            failures.append(f"{tag}: a run failed outright")
            continue
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{tag}: repeated runs wrote different bytes")
    _finish(11, "fixed-seed reruns write byte-identical tables", start, 10.0, failures)
