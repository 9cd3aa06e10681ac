"""Experiment drivers: build the objects a config describes, measure, report.

Each experiment <name> of config.EXPERIMENTS is run by _run_<name>, which
takes the config and returns a Report whose verdicts cite the tolerance
they used; ``run`` dispatches to it and is the one writer of the outdir.
Runs are deterministic for a fixed config and seed (the only randomness is
the config's seeded generator).
"""

from __future__ import annotations

import io

import numpy as np

from .. import __version__
from .. import dynamics as dyn
from .. import lattice as lt
from .. import poisson as ps
from .. import zuckerman as zk
from ..weil import max_or_nan
from .config import (ConfigError, Draws, ExperimentConfig, boolean, cauchy_profiles, count,
                     located, number, observable_kind, spacetime_profile, spatial_profile)
from .oracle import PauliJordanOracle
from .report import Report, check, check_window, write_report


def run(config: ExperimentConfig, outdir: str | None = None) -> Report:
    """Run a validated config's experiment and, given an outdir, write its report there."""
    report = globals()[f"_run_{config.experiment}"](config)
    report.provenance = {
        "config_sha256": config.config_hash(),
        "version": __version__,
        "numpy": np.__version__,
        "seed": config.seed,
    }
    if outdir is not None:
        write_report(report, outdir)
    return report


# -- shared builders -----------------------------------------------------------


def _build_data(config: ExperimentConfig, rng: Draws,
                lat: lt.LatticeSpacetime | None = None) -> dyn.CauchyData:
    return _build_tangent(config.initial_data, lat or config.lattice, rng)


def _build_tangent(desc: dict, lat: lt.LatticeSpacetime, rng: Draws,
                   path: str = "initial_data") -> dyn.CauchyData:
    """Real Cauchy data on lat from the {phi, pi} descriptor at path."""
    phi, pi = (located(f"{path}.{name}", spatial_profile, p, lat, rng)
               for name, p in zip(("phi", "pi"), located(path, cauchy_profiles, desc)))
    return dyn.data_from_arrays(phi, pi)


def _build_observable(desc: dict, config: ExperimentConfig, rng: Draws,
                      path: str = "observable") -> ps.Observable:
    """The observable whose descriptor sits at path."""
    kind = located(path, observable_kind, desc)
    lat = config.lattice
    smearing = f"{path}.smearing"
    if kind == "slice_phi":
        f = located(smearing, spatial_profile, desc.get("smearing", {}), lat, rng)
        return ps.slice_phi_observable(f, lat, name=desc.get("name", ""))
    if kind == "slice_pi":
        g = located(smearing, spatial_profile, desc.get("smearing", {}), lat, rng)
        return ps.slice_pi_observable(g, lat, name=desc.get("name", ""))
    if kind == "spacetime":
        g = spacetime_profile(desc.get("smearing", {}), lat, rng, smearing)
        return ps.spacetime_observable(g, config.interaction, lat, name=desc.get("name", ""))
    factors = desc.get("factors", [])  # a poly_composite, the one kind left
    if not isinstance(factors, list) or not factors:
        raise ConfigError(f"{path}: poly_composite needs a nonempty factors list")
    built = [_build_observable(f, config, rng, f"{path}.factors[{k}]")
             for k, f in enumerate(factors)]
    obs = built[0]
    for extra in built[1:]:
        obs = ps.observable_product(obs, extra)
    power = count(desc, "power", 1, 0)
    if power != 1:
        obs = ps.observable_power(obs, power)
    return obs


def _scaled_lattice(lat: lt.LatticeSpacetime, n: int) -> lt.LatticeSpacetime:
    """Same extent, anisotropy, and total time on an n-site grid."""
    extent = lat.n_space * lat.dx
    ratio = lat.dt / lat.dx
    total_t = lat.n_time * lat.dt
    dx = extent / n
    dt = ratio * dx
    return lt.LatticeSpacetime(lat.topology, n, dx, dt,
                               max(2, round(total_t / dt)), lat.guard)


def _fit_order(dxs, errs) -> float:
    """Least-squares slope of log error against log dx."""
    errs = np.asarray(errs)
    if not np.all(np.isfinite(errs) & (errs > 0)):
        raise ConfigError(f"cannot fit an order to the errors {errs.tolist()}: "
                          "each must be finite and nonzero")
    return float(np.polyfit(np.log(np.asarray(dxs)), np.log(errs), 1)[0])


def _oracle(config: ExperimentConfig) -> PauliJordanOracle:
    """The mode-sum oracle for the config's lattice and free or mass interaction."""
    if not config.interaction.affine:
        raise ConfigError("the mode-sum oracle needs the free or mass interaction")
    return PauliJordanOracle(config.lattice, config.interaction.mass)


def _conservation(config: ExperimentConfig, rng: Draws,
                  lat: lt.LatticeSpacetime) -> tuple[np.ndarray, float]:
    """omega per slice and the closedness residual of the config's two tangents.

    Both come from one march of the two tangents over W (x) D(2), folded
    block by block.
    """
    if len(config.tangents) != 2:
        raise ConfigError(f"tangents: omega pairs exactly two, not {len(config.tangents)}")
    base = _build_data(config, rng, lat)
    directions = [_build_tangent(desc, lat, rng, f"tangents[{k}]")
                  for k, desc in enumerate(config.tangents)]
    supports = (None, None)
    if lat.topology == lt.LINE:
        supports = tuple(lt.support_mask(lat, d.phi, d.pi) for d in directions)
    fibers = dyn.tangent_blocks(base, directions, config.interaction, lat)
    return zk.conservation(fibers, lat, supports)


def _omega_series(series: np.ndarray, first: int = 0) -> np.ndarray:
    """omega(v, v') from slice first on; one that vanishes there has no drift to measure."""
    if series[first] == 0:
        raise ConfigError(f"tangents: omega vanishes on slice {first}, so a drift "
                          "relative to it would measure nothing")
    return series[first:]


# -- drivers --------------------------------------------------------------------


def _run_solve(config: ExperimentConfig) -> Report:
    rng = config.rng()
    lat = config.lattice
    data = _build_data(config, rng)
    hist = dyn.solve_cauchy(data, config.interaction, lat)
    res = dyn.eom_residual(hist, config.interaction)
    per_slice = np.max(np.abs(res.coeffs), axis=tuple(range(1, res.coeffs.ndim)))
    rows = [[j + 1, lat.t[j + 1], float(per_slice[j])] for j in range(len(per_slice))]
    report = Report(config.experiment)
    report.add_table("residuals", ["slice", "t", "max_residual"], rows)
    tol = config.tolerances["solve_residual"]
    if tol is None:  # rounding of the residual's terms, which scale as max|phi| / dt^2
        tol = 1e-12 * max(1.0, hist.values.max_abs()) / lat.dt**2
    report.add_verdict(check("eom_residual_max", float(per_slice.max()), tol,
                             note="the leapfrog's own recursion, to rounding"))
    buf = io.BytesIO()
    lt.save_grid(buf, hist.values, lat)
    report.files["history.bin"] = buf.getvalue()
    return report


def _run_conserve(config: ExperimentConfig) -> Report:
    rng = config.rng()
    lat = config.lattice
    series, closed = _conservation(config, rng, lat)
    drift = zk.relative_drift(_omega_series(series))
    rows = zip(range(lat.n_slices), lat.t.tolist(), series.tolist(), drift.tolist())
    report = Report(config.experiment)
    report.add_table("omega_series", ["slice", "t", "omega", "relative_drift"], rows)
    report.add_table("closedness", ["max_divergence"], [[closed]])
    report.add_verdict(check("omega_slice_drift", zk.slice_drift(series),
                             config.tolerances["omega_drift"],
                             note="relative to omega at slice 0"))
    # the leapfrog conserves the Wronskian of two fibers exactly, and the central
    # stencil's omega on slices 1..N-1 is the mean of two of them: constant to rounding
    report.add_verdict(check("omega_interior_drift",
                             zk.slice_drift(_omega_series(series, 1)[:-1]),
                             config.tolerances["omega_interior_drift"],
                             note="slices 1..N-1, relative to omega at slice 1"))
    return report


def _run_bracket(config: ExperimentConfig) -> Report:
    rng = config.rng()
    lat = config.lattice
    if len(config.observables) < 2:
        raise ConfigError("bracket experiment needs at least two observables")
    compare = located("options", boolean, config.options, "compare_oracle", False)
    if not compare and "bracket_oracle" in config.raw.get("tolerances", {}):
        raise ConfigError("tolerances: bracket_oracle bounds the oracle comparison, "
                          "which runs only with compare_oracle true")
    built = [_build_observable(d, config, rng, f"observables[{k}]")
             for k, d in enumerate(config.observables)]
    base = _build_data(config, rng)
    pairs = [ps.make_pair(F, lat) for F in built]

    oracle = _oracle(config) if compare else None
    if oracle is not None and any(F.smearing is None for F in built):
        raise ConfigError("oracle comparison needs spacetime observables")

    index = [(i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))]
    refs = []
    if oracle is not None:  # each grid transformed once, a zero refused before any sweep
        moments = oracle.moments(*(F.smearing.weights for F in built))
        for i, j in index:
            refs.append(oracle.smeared_bracket(moments[i], moments[j]))
            if refs[-1] == 0:
                raise ConfigError(f"observables {i} and {j}: the oracle bracket is 0, "
                                  "so a relative error against it would measure nothing")
    with ps.sharing():  # one base point: each dF is taken once, all in one sweep
        ps.differential([p.F for p in pairs], base)
        defects = [ps.pair_defect(p, base, lat) for p in pairs]
        values = [float(ps.bracket(pairs[i], pairs[j], lat).F.evaluate(base).scalar_part)
                  for i, j in index]

    header = ["i", "j", "name_i", "name_j", "bracket", "pair_residual"]
    if oracle is not None:
        header += ["oracle", "relative_error"]
    rows = []
    worst = 0.0
    for k, ((i, j), value) in enumerate(zip(index, values)):
        row = [i, j, built[i].name, built[j].name, value,
               max_or_nan(defects[i], defects[j])]
        if oracle is not None:
            ref = refs[k]
            rel = abs(value - ref) / abs(ref)
            row += [ref, rel]
            worst = max_or_nan(worst, rel)
        rows.append(row)
    report = Report(config.experiment)
    report.add_table("brackets", header, rows)
    if oracle is not None:
        report.add_verdict(check("bracket_vs_oracle", worst,
                                 config.tolerances["bracket_oracle"],
                                 note="max relative error over pairs"))
    else:
        report.add_verdict(check("pair_residual_max", max_or_nan(*defects),
                                 ps.DEFAULT_ADMISSIBILITY_TOL,
                                 note="admissibility of the input pairs"))
    return report


def _run_jacobi(config: ExperimentConfig) -> Report:
    rng = config.rng()
    lat = config.lattice
    if len(config.observables) != 3:
        raise ConfigError("observables: the axioms take exactly three, "
                          f"not {len(config.observables)}")
    built = [_build_observable(d, config, rng, f"observables[{k}]")
             for k, d in enumerate(config.observables)]
    n_samples = count(config.options, "n_samples", 5, 1)
    amp = number(config.options, "sample_amplitude", 0.5)
    # each profile draws 10 normals (kmax 4) and fills n_space sites
    if 8 * n_samples * 2 * max(lat.n_space, 10) > np.iinfo(np.intp).max:
        raise ConfigError(f"options: {n_samples} samples of 2 x {lat.n_space} float64 "
                          "sites have more bytes than numpy can size")
    # one draw, phi then pi of each sample in turn; the check below names an overflow
    with np.errstate(over="ignore"):
        draws = spatial_profile({"profile": "random_fourier", "amplitude": amp}, lat, rng,
                                (n_samples, 2))
    if not (finite := np.isfinite(draws).all(axis=(1, 2))).all():
        raise ConfigError(f"options: sample_amplitude {amp!r} makes sample "
                          f"{int(np.argmin(finite))} non-finite")
    samples = dyn.data_from_arrays(draws[:, 0], draws[:, 1])
    pairs = [ps.make_pair(F, lat) for F in built]
    try:  # finite samples whose products overflow would end in NaN verdicts
        with np.errstate(over="raise", invalid="raise"):
            rep = ps.verify_axioms(pairs[0], pairs[1], pairs[2], samples, lat)
    except FloatingPointError as exc:
        raise ConfigError(f"options: sample_amplitude {amp!r} makes the axiom terms "
                          f"overflow ({exc})") from exc
    reval = max_or_nan(rep.pair_defects[0], rep.pair_defects[1], rep.closure)
    closure_bound = max_or_nan(*rep.pair_defects) + 10.0 * lat.dx**2

    report = Report(config.experiment)
    report.add_table(
        "axiom_defects",
        ["axiom", "relative_defect"],
        [
            ["antisymmetry_f", rep.antisymmetry_f],
            ["antisymmetry_v", rep.antisymmetry_v],
            ["jacobi_f", rep.jacobi_f],
            ["jacobi_v", rep.jacobi_v],
            ["leibniz_f", rep.leibniz_f],
            ["leibniz_v", rep.leibniz_v],
        ],
    )
    tol = config.tolerances["axiom_defect"]
    report.add_verdict(check("antisymmetry",
                             max_or_nan(rep.antisymmetry_f, rep.antisymmetry_v), tol))
    report.add_verdict(check("jacobi", max_or_nan(rep.jacobi_f, rep.jacobi_v), tol))
    report.add_verdict(check("leibniz", max_or_nan(rep.leibniz_f, rep.leibniz_v), tol))
    report.add_verdict(check("bracket_revalidation", reval, closure_bound,
                             note="max(input residuals) + 10*dx^2"))
    return report


def _run_convergence(config: ExperimentConfig) -> Report:
    lat0 = config.lattice
    ladder = config.ladder or (64, 128, 256)
    if len(ladder) < 2:
        raise ConfigError("a convergence ladder needs at least two rungs")
    study = config.study
    rows, errs, dxs = [], [], []
    for n in ladder:
        lat = _scaled_lattice(lat0, n)
        rng = config.rng()  # same seed per rung: identical continuum problem
        if study == "solution_error":
            if lat.topology != lt.CIRCLE or config.interaction.name != "free":
                raise ConfigError("solution_error study needs a free field on the circle")
            k = 2 * np.pi / lat.circumference
            data = dyn.data_from_arrays(np.cos(k * lat.x), np.zeros(lat.n_space))
            hist = dyn.solve_cauchy(data, config.interaction, lat)
            exact = np.cos(k * lat.t)[:, None] * np.cos(k * lat.x)[None, :]
            err = float(np.max(np.abs(hist.values.scalar_part - exact)))
        elif study == "omega_drift":
            err = zk.slice_drift(_omega_series(_conservation(config, rng, lat)[0]))
        else:  # closedness, the one study left
            err = _conservation(config, rng, lat)[1]
        rows.append([n, lat.dx, err])
        errs.append(err)
        dxs.append(lat.dx)
    order = _fit_order(dxs, errs)
    report = Report(config.experiment)
    report.add_table("ladder", ["n_space", "dx", "error"], rows)
    report.add_table("order", ["study", "measured_order"], [[study, order]])
    report.add_verdict(check_window(f"{study}_order", order, 2.0,
                                    config.tolerances["order_band"]))
    return report


def _run_oracle_pj(config: ExperimentConfig) -> Report:
    lat = config.lattice
    oracle = _oracle(config)
    rows = []
    for j in (0, lat.n_time // 2, lat.n_time):
        t = float(lat.t[j])
        g = oracle.commutator(t)
        for i in range(lat.n_space):
            rows.append([j, t, i, i * lat.dx, float(g[i])])
    comb_defect = float(np.max(np.abs(oracle.d_dt_commutator(0.0)
                                      - oracle.delta_comb())))
    zero_defect = float(np.max(np.abs(oracle.commutator(0.0))))
    report = Report(config.experiment)
    report.add_table("commutator", ["slice", "t", "site", "separation", "G"], rows)
    tol = config.tolerances["comb_defect"]
    report.add_verdict(check("equal_time_commutator", zero_defect, tol,
                             note="G(0, .) = 0"))
    report.add_verdict(check("velocity_comb", comb_defect, tol,
                             note="d_t G(0, .) equals the discrete delta comb"))
    return report
