"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
Tolerances are pinned here, next to each criterion.
"""

import os

import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield import zuckerman as zk
from weilfield.harness import config as cfg, experiments
from weilfield.harness.oracle import PauliJordanOracle
from weilfield.weil import WeilValue


def circle_lattice(n, steps, extent=2 * np.pi):
    return lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, steps)


def verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def fitted_order(dxs, errs) -> float:
    return float(np.polyfit(np.log(np.asarray(dxs)), np.log(np.asarray(errs)), 1)[0])


# -- shared sine-Gordon conservation ladder (criteria 2 and 3) ---------------------


def streamed(v1, v2):
    """(omega series, closedness residual) of two stored tangents, fed as one block."""
    pair = np.stack([v1.fiber.values.coeffs, v2.fiber.values.coeffs])
    block = [(0, WeilValue(v1.fiber.algebra, pair))]
    return zk.conservation(iter(block), v1.lattice, (v1.support, v2.support))


@pytest.fixture(scope="module")
def sg_ladder():
    out = {}
    for n in (64, 128, 256, 512):
        lat = circle_lattice(n, 2 * n)
        sg = dyn.interaction("sine_gordon")
        base = dyn.data_from_arrays(0.5 * np.cos(lat.x), 0.2 * np.sin(lat.x))
        bump = np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2)
        l1 = dyn.tangent_lift(base, dyn.data_from_arrays(bump, np.zeros(n)), sg, lat)
        l2 = dyn.tangent_lift(base, dyn.data_from_arrays(np.zeros(n), bump), sg, lat)
        base_hist = dyn.base_history(l1)
        v1 = zk.TangentSolution(base_hist, dyn.fiber_history(l1))
        v2 = zk.TangentSolution(base_hist, dyn.fiber_history(l2))
        out[n] = (lat, sg, v1, v2)
    return out


def test_criterion_1_tangent_equals_linearization():
    """Dual-number fiber vs central finite difference, relative <= 1e-6."""
    n, steps, delta, tol = 256, 512, 1e-4, 1e-6
    lat = circle_lattice(n, steps)
    worst = 0.0
    for name, kwargs in (("phi4", {"coupling": 1.0}), ("sine_gordon", {})):
        inter = dyn.interaction(name, **kwargs)
        data = dyn.data_from_arrays(0.8 * np.cos(lat.x) + 0.3 * np.sin(2 * lat.x),
                                    0.2 * np.sin(lat.x))
        direction = dyn.data_from_arrays(
            np.exp(-0.5 * ((lat.x - np.pi) / 0.5) ** 2), 0.1 * np.cos(lat.x)
        )
        fiber = dyn.fiber_history(
            dyn.tangent_lift(data, direction, inter, lat)
        ).values.scalar_part
        plus = dyn.solve_cauchy(data + delta * direction, inter, lat).values.scalar_part
        minus = dyn.solve_cauchy(data + (-delta) * direction, inter, lat).values.scalar_part
        fd = (plus - minus) / (2 * delta)
        rel = np.max(np.abs(fiber - fd)) / np.max(np.abs(fiber))
        worst = max(worst, rel)
    verdict(
        "criterion 1 (tangent = linearization)",
        worst <= tol,
        f"max relative deviation {worst:.3e} vs {tol:.0e} "
        f"(phi4 and sine-Gordon, n={n}, {steps} steps, delta={delta:g})",
    )


def test_criterion_2_omega_slice_independence(sg_ladder):
    """Relative omega drift <= 1e-3 at n=256 and drift order 2 +/- 0.3."""
    tol_drift, order_band = 1e-3, 0.3
    drifts, dxs = {}, {}
    for n, (lat, sg, v1, v2) in sg_ladder.items():
        drifts[n] = zk.slice_drift(streamed(v1, v2)[0])
        dxs[n] = lat.dx
    order = fitted_order([dxs[n] for n in sorted(dxs)],
                         [drifts[n] for n in sorted(dxs)])
    ok = drifts[256] <= tol_drift and abs(order - 2.0) <= order_band
    verdict(
        "criterion 2 (Cauchy-surface independence of omega)",
        ok,
        f"drift at n=256 is {drifts[256]:.3e} vs {tol_drift:.0e}, "
        f"measured order {order:.2f} vs 2 +/- {order_band}",
    )


def test_criterion_3_on_shell_closedness(sg_ladder):
    """Divergence of the current: order 2 +/- 0.3, off-shell control nonvanishing."""
    order_band = 0.3
    errs, dxs, controls = [], [], []
    for n in sorted(sg_ladder):
        lat, sg, v1, v2 = sg_ladder[n]
        errs.append(streamed(v1, v2)[1])
        dxs.append(lat.dx)
        bad_vals = v2.fiber.values.coeffs.copy()
        bad_vals[..., 0] += np.sin(lat.t)[:, None] * np.cos(2 * lat.x)[None, :]
        bad = zk.TangentSolution(
            v1.base, dyn.FieldHistory(WeilValue(v2.fiber.algebra, bad_vals), lat)
        )
        controls.append(streamed(v1, bad)[1])
    order = fitted_order(dxs, errs)
    control_floor = min(controls)
    ok = abs(order - 2.0) <= order_band and control_floor > 0.1 * max(controls) \
        and control_floor > 0.05
    verdict(
        "criterion 3 (on-shell closedness)",
        ok,
        f"measured order {order:.2f} vs 2 +/- {order_band}; off-shell control "
        f"stays at {control_floor:.3e} (no decay toward zero)",
    )


def test_criterion_4_lie_bracket_dual_construction():
    """Closed-form bracket vs eps1*eps2 extraction of the four-fold flow."""
    tol = 1e-12
    lat = circle_lattice(32, 8)
    rng = np.random.default_rng(2024)

    def polynomial_field():
        a, b = rng.standard_normal((2, lat.n_space))
        c, e = rng.standard_normal((2, lat.n_space))
        p = int(rng.integers(1, 4))

        def ev(d):
            s = (d.phi * a).sum(axis=-1) * lat.dx
            t = (d.pi * b).sum(axis=-1) * lat.dx
            coef = (s ** p + t * s).expand_dims(-1)
            return dyn.CauchyData(coef * c, coef * e)

        return ps.SolVectorField(ev)

    worst = 0.0
    for _ in range(20):
        v1, v2 = polynomial_field(), polynomial_field()
        at = dyn.data_from_arrays(0.5 * rng.standard_normal(lat.n_space),
                                  0.5 * rng.standard_normal(lat.n_space))
        lb = ps.lie_bracket(v1, v2, at)
        tb = ps.tau_bracket(v1, v2, at)
        worst = max(worst, (lb - tb).max_abs() / max(lb.max_abs(), 1e-300))
    verdict(
        "criterion 4 (Lie bracket dual construction)",
        worst <= tol,
        f"max relative disagreement {worst:.3e} vs {tol:.0e} over 20 random "
        "polynomial vector fields",
    )


def test_criterion_5_free_field_bracket_vs_pauli_jordan():
    """Machinery bracket vs mode-sum oracle: <= 1e-3 at n=256, order about 2."""
    tol, order_low, order_high = 1e-3, 1.5, 2.5
    rels, dxs = [], []
    for n in (64, 128, 256):
        lat = circle_lattice(n, n // 2)
        inter = dyn.interaction("mass", mass=1.0)
        T = lat.n_time * lat.dt
        g1 = np.outer(np.exp(-0.5 * ((lat.t - T / 3) / (T / 10)) ** 2),
                      np.exp(-0.5 * ((lat.x - 2.0) / 0.4) ** 2))
        g2 = np.outer(np.exp(-0.5 * ((lat.t - 2 * T / 3) / (T / 10)) ** 2),
                      np.exp(-0.5 * ((lat.x - 4.0) / 0.4) ** 2))
        base = dyn.data_from_arrays(np.zeros(n), np.zeros(n))
        c1, c2 = ps.differential([ps.spacetime_observable(g, inter, lat) for g in (g1, g2)],
                                 base)
        v1 = ps.hamiltonian_inversion(c1, lat.dx)
        v2 = ps.hamiltonian_inversion(c2, lat.dx)
        value = float(ps.omega_pairing(v1, v2, lat.dx).scalar_part)
        pj = PauliJordanOracle(lat, 1.0)
        ref = pj.smeared_bracket(*pj.moments(g1, g2))
        rels.append(abs(value - ref) / abs(ref))
        dxs.append(lat.dx)
    order = fitted_order(dxs, rels)
    ok = rels[-1] <= tol and order_low <= order <= order_high
    verdict(
        "criterion 5 (free-field bracket vs Pauli-Jordan oracle)",
        ok,
        f"relative error {rels[-1]:.3e} vs {tol:.0e} at n=256, "
        f"refinement order {order:.2f} (expected about 2)",
    )


def test_criterion_6_poisson_axioms():
    """Antisymmetry to rounding; Jacobi and Leibniz <= 1e-9; closure bound."""
    tol = 1e-9
    lat = circle_lattice(32, 8)
    rng = np.random.default_rng(77)
    f = np.exp(-0.5 * ((lat.x - 2.0) / 0.6) ** 2)
    g = np.cos(lat.x)
    h = np.sin(lat.x)
    F1 = ps.observable_power(ps.slice_phi_observable(f, lat), 2)
    F2 = ps.slice_pi_observable(g, lat)
    F3 = ps.observable_product(ps.slice_phi_observable(h, lat),
                               ps.slice_pi_observable(g, lat))
    # five samples, phi then pi of each in turn: the draws of one call per profile
    draws = 0.5 * rng.standard_normal((5, 2, lat.n_space))
    samples = dyn.data_from_arrays(draws[:, 0], draws[:, 1])
    pairs = [ps.make_pair(F, lat) for F in (F1, F2, F3)]
    rep = ps.verify_axioms(pairs[0], pairs[1], pairs[2], samples, lat)
    reval = max(rep.pair_defects[0], rep.pair_defects[1], rep.closure)
    closure_bound = max(rep.pair_defects) + 10 * lat.dx**2
    ok = (
        max(rep.antisymmetry_f, rep.antisymmetry_v) <= 1e-12
        and max(rep.jacobi_f, rep.jacobi_v) <= tol
        and max(rep.leibniz_f, rep.leibniz_v) <= tol
        and reval <= closure_bound
    )
    verdict(
        "criterion 6 (Poisson axioms)",
        ok,
        f"antisymmetry {max(rep.antisymmetry_f, rep.antisymmetry_v):.1e}, "
        f"Jacobi {max(rep.jacobi_f, rep.jacobi_v):.3e}, "
        f"Leibniz {max(rep.leibniz_f, rep.leibniz_v):.3e} vs {tol:.0e}; "
        f"bracket revalidates at {reval:.2e} <= {closure_bound:.2e}",
    )


def test_criterion_7_canonical_pairs():
    """{int f phi, int g pi} = sum f g dx to 1e-12; {int f phi, int g phi} = 0."""
    tol = 1e-12
    n = 256
    lat = circle_lattice(n, 8)
    rng = np.random.default_rng(3)
    f = np.exp(-0.5 * ((lat.x - 2.0) / 0.5) ** 2)
    g = np.cos(lat.x) + 0.3 * np.sin(3 * lat.x)
    base = dyn.data_from_arrays(0.4 * rng.standard_normal(n),
                                0.4 * rng.standard_normal(n))
    pf = ps.make_pair(ps.slice_phi_observable(f, lat), lat)
    pg = ps.make_pair(ps.slice_pi_observable(g, lat), lat)
    b = ps.bracket(pf, pg, lat)
    value = float(b.F.evaluate(base).scalar_part)
    expected = float(np.sum(f * g) * lat.dx)
    rel = abs(value - expected) / abs(expected)
    pg_phi = ps.make_pair(ps.slice_phi_observable(g, lat), lat)
    zero = float(ps.bracket(pf, pg_phi, lat).F.evaluate(base).scalar_part)
    ok = rel <= tol and zero == 0.0
    verdict(
        "criterion 7 (canonical pairs)",
        ok,
        f"{{int f phi, int g pi}} relative error {rel:.3e} vs {tol:.0e}; "
        f"{{int f phi, int g phi}} = {zero!r} exactly",
    )


def test_criterion_8_spacelike_compact_bookkeeping():
    """Fibers inside cone windows exactly; mixed sc brackets; two non-sc rejected."""
    n = 128
    lat = lt.LatticeSpacetime("line", n, 0.1, 0.05, 40, guard=2)
    sg = dyn.interaction("sine_gordon")
    base = dyn.data_from_arrays(np.zeros(n), np.zeros(n))
    bump = np.zeros(n)
    bump[60:70] = np.exp(1 - 1 / (1 - np.linspace(-0.9, 0.9, 10) ** 2))
    fiber = dyn.fiber_history(
        dyn.tangent_lift(base, dyn.data_from_arrays(bump, np.zeros(n)), sg, lat)
    )
    containment = True
    for j in range(lat.n_slices):
        outside = ~lt.causal_cone(bump != 0, j, lat)
        leak = np.max(np.abs(fiber.values.coeffs[j][outside, :]), initial=0.0)
        containment &= leak == 0.0

    f_inner = np.zeros(n)
    f_inner[55:75] = np.sin(np.linspace(0, np.pi, 20))
    p_sc = ps.make_pair(ps.slice_phi_observable(f_inner, lat), lat)
    non_sc_field = ps.SolVectorField(
        lambda d: dyn.CauchyData(
            WeilValue.from_scalar(d.algebra, np.broadcast_to(-np.ones(n), d.phi.shape)),
            WeilValue.zeros(d.algebra, d.pi.shape),
        ),
        sc=False,
    )
    p_non = ps.HamiltonianPair(ps.slice_pi_observable(np.ones(n), lat), non_sc_field)
    mixed_ok = True
    try:
        ps.bracket(p_sc, p_non, lat)
    except lt.SupportError:
        mixed_ok = False
    rejected = False
    try:
        ps.bracket(p_non, p_non, lat)
    except lt.SupportError:
        rejected = True
    ok = containment and p_sc.v.sc and mixed_ok and rejected
    verdict(
        "criterion 8 (spacelike-compact bookkeeping)",
        ok,
        f"cone containment exact: {containment}; mixed sc bracket evaluates: "
        f"{mixed_ok}; two non-sc factors rejected: {rejected}",
    )


def test_criterion_9_degeneracy_classification():
    """Rank-deficient omega: kernel components <=> non-admissible, 50 cases."""
    tol_bad, tol_ok = 1e-6, 1e-10
    n = 16
    lat = circle_lattice(n, 4)
    rng = np.random.default_rng(12)
    degenerate = ps.OmegaOperator.closed_form(n, lat.dx).inject_null(
        rng.standard_normal(2 * n)
    )
    null = degenerate.null_space()
    all_ok = null.shape[1] == 2
    worst_ok, best_bad = 0.0, np.inf
    for _ in range(50):
        c0 = rng.standard_normal(2 * n)
        c_adm = c0 - null @ (null.T @ c0)
        _, res_adm = degenerate.solve(c_adm)
        c_bad = c_adm + null @ (0.1 + np.abs(rng.standard_normal(null.shape[1])))
        _, res_bad = degenerate.solve(c_bad)
        worst_ok = max(worst_ok, res_adm)
        best_bad = min(best_bad, res_bad)
        all_ok &= res_adm < tol_ok and res_bad > tol_bad
    verdict(
        "criterion 9 (degeneracy and admissibility)",
        all_ok,
        f"admissible residuals <= {worst_ok:.2e} (< {tol_ok:.0e}), non-admissible "
        f">= {best_bad:.2e} (> {tol_bad:.0e}), over a 50-case sweep",
    )


def test_criterion_10_cauchy_roundtrip():
    """restrict(solve(d), 0): phi to 1e-12, pi at measured order 2 +/- 0.3."""
    tol_phi, order_band = 1e-12, 0.3
    worst_phi = 0.0
    errs_pi, dts = [], []
    for n in (64, 128, 256):
        lat = circle_lattice(n, 16)
        rng = np.random.default_rng(99)
        ks = np.arange(5)
        amps = rng.standard_normal((4, 5)) / (1 + ks) ** 2
        phi = sum(amps[0, k] * np.cos(k * lat.x) + amps[1, k] * np.sin(k * lat.x)
                  for k in ks)
        pi = sum(amps[2, k] * np.cos(k * lat.x) + amps[3, k] * np.sin(k * lat.x)
                 for k in ks)
        data = dyn.data_from_arrays(phi, pi)
        hist = dyn.solve_cauchy(data, dyn.interaction("sine_gordon"), lat)
        back = dyn.restrict_data(hist, 0)
        worst_phi = max(worst_phi, (back.phi - data.phi).max_abs())
        errs_pi.append((back.pi - data.pi).max_abs())
        dts.append(lat.dt)
    order = fitted_order(dts, errs_pi)
    ok = worst_phi <= tol_phi and abs(order - 2.0) <= order_band
    verdict(
        "criterion 10 (Cauchy round trip)",
        ok,
        f"phi error {worst_phi:.1e} vs {tol_phi:.0e}; pi restriction order "
        f"{order:.2f} vs 2 +/- {order_band}",
    )


def test_shipped_spacetime_jacobi_config_passes():
    """configs/jacobi_spacetime_sine_gordon.json: the axioms where brackets sweep.

    Two spacetime sine-Gordon observables and a spacetime x slice_pi product:
    each bracket's gradient sweeps the adjoint at dual and R[eps1, eps2] base
    points.  The defects are divided by scales floored at 1.0, so they read
    about 1e-17 here; the config's tolerance is criterion 6's 1e-9.
    """
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "jacobi_spacetime_sine_gordon.json")
    rep = experiments.run(cfg.ExperimentConfig.from_file(path))
    verdict("shipped spacetime jacobi config", rep.all_passed(),
            "; ".join(v.line() for v in rep.verdicts))


def test_shipped_line_conserve_config_passes():
    """configs/conserve_sine_gordon_line.json: the current on the line.

    Sine-Gordon bumps on 1024 sites of a slab 40 long, 256 steps: the march
    steps every site, the edge sites included, and the tangents' cones
    stay off the guard band.  omega drifts about 2.5e-4 relative to slice 0,
    under the config's 1e-3.
    """
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "conserve_sine_gordon_line.json")
    rep = experiments.run(cfg.ExperimentConfig.from_file(path))
    verdict("shipped line conserve config", rep.all_passed(),
            "; ".join(v.line() for v in rep.verdicts))
