import copy
import csv
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import operator
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weilfield
from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield.harness import cli, config as cfg, experiments, oracle, report as rp

BASE_CONSERVE = {
    "experiment": "conserve",
    "lattice": {"topology": "circle", "n_space": 128,
                "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 96},
    "interaction": {"name": "sine_gordon"},
    "initial_data": {"phi": {"profile": "cosine", "amplitude": 0.5},
                     "pi": {"profile": "sine", "amplitude": 0.2}},
    "tangents": [
        {"phi": {"profile": "gaussian", "center": 3.14159, "width": 0.5}},
        {"pi": {"profile": "gaussian", "center": 3.14159, "width": 0.5}},
    ],
    "seed": 11,
}

TOY_BRACKET = {
    "experiment": "bracket",
    "lattice": {"topology": "circle", "n_space": 32,
                "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 16},
    "interaction": {"name": "mass", "mass": 0.7},
    "observables": [
        {"kind": "spacetime", "smearing": {
            "time": {"profile": "gaussian", "center": 0.3, "width": 0.2},
            "space": {"profile": "gaussian", "center": 2.0, "width": 0.5}}},
        {"kind": "spacetime", "smearing": {
            "time": {"profile": "gaussian", "center": 0.6, "width": 0.2},
            "space": {"profile": "gaussian", "center": 3.0, "width": 0.5}}},
    ],
    "options": {"compare_oracle": True},
    "seed": 4,
}

TOY_JACOBI = {
    "experiment": "jacobi",
    "lattice": {"topology": "circle", "n_space": 32,
                "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 8},
    "interaction": {"name": "sine_gordon"},
    "observables": [
        {"kind": "slice_phi", "smearing": {"profile": "gaussian",
                                           "center": 2.0, "width": 0.6}},
        {"kind": "slice_pi", "smearing": {"profile": "cosine"}},
        {"kind": "poly_composite", "factors": [
            {"kind": "slice_phi", "smearing": {"profile": "sine"}},
            {"kind": "slice_pi", "smearing": {"profile": "cosine"}}]},
    ],
    "options": {"n_samples": 2},
    "seed": 2,
}

BASE_DRIFT = {
    "experiment": "convergence",
    "lattice": {"topology": "circle", "n_space": 16,
                "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 8},
    "interaction": {"name": "sine_gordon"},
    "study": "omega_drift",
    "ladder": [16, 32],
    "tangents": [
        {"phi": {"profile": "gaussian", "center": 3.14159, "width": 0.5}},
        {"pi": {"profile": "gaussian", "center": 3.14159, "width": 0.5}},
    ],
}


# -- configuration ---------------------------------------------------------------


def test_config_requires_known_experiment():
    with pytest.raises(cfg.ConfigError):
        cfg.ExperimentConfig.from_dict({"experiment": "frobnicate"})


def test_config_requires_lattice():
    with pytest.raises(cfg.ConfigError):
        cfg.ExperimentConfig.from_dict({"experiment": "solve"})


def test_config_rejects_dx_and_extent():
    doc = copy.deepcopy(BASE_CONSERVE)
    doc["lattice"]["dx"] = 0.1
    with pytest.raises(cfg.ConfigError):
        cfg.ExperimentConfig.from_dict(doc)


def test_config_rejects_cfl_violation():
    doc = copy.deepcopy(BASE_CONSERVE)
    doc["lattice"] = {"topology": "circle", "n_space": 64,
                      "dx": 0.1, "dt": 0.2, "n_time": 8}
    with pytest.raises(cfg.ConfigError):
        cfg.ExperimentConfig.from_dict(doc)


def test_config_rejects_unknown_profile():
    doc = copy.deepcopy(BASE_CONSERVE)
    doc["initial_data"] = {"phi": {"profile": "sawtooth"}}
    conf = cfg.ExperimentConfig.from_dict(doc)
    with pytest.raises(cfg.ConfigError):
        experiments.run(conf)


def test_config_not_json():
    with pytest.raises(cfg.ConfigError):
        cfg.ExperimentConfig.from_json("not json {")


def test_overrides_and_hash():
    conf = cfg.ExperimentConfig.from_dict(copy.deepcopy(BASE_CONSERVE))
    conf2 = conf.with_overrides(seed=99, tol=1e-2)
    assert conf2.seed == 99
    assert conf2.tolerances["omega_drift"] == 1e-2
    assert conf.config_hash() != conf2.config_hash()
    assert conf.config_hash() == cfg.ExperimentConfig.from_dict(
        copy.deepcopy(BASE_CONSERVE)).config_hash()


# None in sys.modules makes an import of that name fail, so the second case
# takes the hashlib fallback of an interpreter without a built-in SHA-256
@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")], ids=["built_in", "hashlib"])
def test_config_hash_is_the_sha256_of_the_canonical_json(blocked, monkeypatch):
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(configs)):
        with open(os.path.join(configs, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert cfg.ExperimentConfig.from_dict(doc).config_hash() == \
            hashlib.sha256(canonical).hexdigest(), name


@pytest.mark.parametrize("name", cfg.EXPERIMENTS)
def test_tol_override_sets_the_first_tolerance(name):
    doc = {"experiment": name, "lattice": BASE_DRIFT["lattice"]}
    defaults = cfg.EXPERIMENTS[name].tolerances
    first = next(iter(defaults))
    conf = cfg.ExperimentConfig.from_dict(doc).with_overrides(tol=0.25)
    assert conf.tolerances == {**defaults, first: 0.25}
    assert conf.raw["tolerances"] == {first: 0.25}


def test_profiles(circle, rng):
    g = cfg.spatial_profile({"profile": "gaussian", "center": 1.0, "width": 0.3,
                             "amplitude": 2.0}, circle, rng)
    assert g.shape == (circle.n_space,)
    assert abs(g.max() - 2.0) < 0.05
    b = cfg.spatial_profile({"profile": "bump", "center": np.pi, "width": 1.0}, circle, rng)
    assert b.max() > 0 and (b >= 0).all()
    outside = np.abs(circle.x - np.pi) >= 1.0
    assert np.all(b[outside] == 0.0)
    k = cfg.spatial_profile({"profile": "kink"}, circle, rng)
    assert k.shape == (circle.n_space,)
    arr = cfg.spatial_profile({"profile": "array",
                               "values": list(range(circle.n_space))}, circle, rng)
    assert arr[3] == 3.0
    with pytest.raises(cfg.ConfigError):
        cfg.spatial_profile({"profile": "array", "values": [1.0]}, circle, rng)


def test_random_fourier_deterministic(circle):
    a = cfg.spatial_profile({"profile": "random_fourier"}, circle,
                            np.random.default_rng(4))
    b = cfg.spatial_profile({"profile": "random_fourier"}, circle,
                            np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_config_draws_are_its_seeded_generator_draws(circle):
    # the run's stream builds default_rng(seed) at its first draw and keeps it
    conf = cfg.ExperimentConfig.from_dict(dict(TOY_JACOBI, seed=7))
    descs = [{"profile": "random_fourier"}, {"profile": "gaussian"},
             {"profile": "random_fourier", "amplitude": 0.5, "kmax": 9},
             {"profile": "random_fourier", "kmax": 0}]
    draws, generator = conf.rng(), np.random.default_rng(7)
    for desc in descs:
        assert np.array_equal(cfg.spatial_profile(desc, circle, draws),
                              cfg.spatial_profile(desc, circle, generator))
    assert np.array_equal(cfg.time_profile(descs[0], conf.lattice, draws),
                          cfg.time_profile(descs[0], conf.lattice, generator))


@pytest.mark.parametrize("lead", [(), (2,), (20, 2)])
@pytest.mark.parametrize("kmax", [0, 4, 9])
@pytest.mark.parametrize("amplitude", [0.5, 3.0])
def test_batched_random_fourier_is_the_stack_of_single_draws(circle, lead, kmax, amplitude):
    desc = {"profile": "random_fourier", "amplitude": amplitude, "kmax": kmax}
    batched = cfg.spatial_profile(desc, circle, np.random.default_rng(5), lead)
    generator = np.random.default_rng(5)
    singles = [cfg.spatial_profile(desc, circle, generator)
               for _ in range(int(np.prod(lead)))]
    assert batched.shape == lead + (circle.n_space,)
    assert np.array_equal(batched, np.reshape(singles, batched.shape))
    # the kinds that draw nothing broadcast their one profile
    cosine = {"profile": "cosine", "amplitude": amplitude}
    assert np.array_equal(cfg.spatial_profile(cosine, circle, generator, lead),
                          np.broadcast_to(cfg.spatial_profile(cosine, circle, generator),
                                          lead + (circle.n_space,)))


def test_jacobi_run_draws_its_samples_in_one_call(monkeypatch):
    calls = []
    real = cfg.SeededDraws.standard_normal

    def counted(self, size=None):
        calls.append(size)
        return real(self, size)

    monkeypatch.setattr(cfg.SeededDraws, "standard_normal", counted)
    doc = _edited(TOY_JACOBI, lambda d: d.update(options={"n_samples": 20}))
    experiments.run(cfg.ExperimentConfig.from_dict(doc))
    assert calls == [(20, 2, 2, 5)]


# -- report machinery ---------------------------------------------------------------


def test_fmt_roundtrips_floats():
    for x in (1 / 3, np.pi, 1e-300, -2.5e17):
        assert float(rp.fmt(x)) == x


def test_csv_bytes_match_csv_writer_of_fmt():
    # numeric rows take one %-format each, the rest csv.writer, and the bytes
    # are csv.writer's of fmt of every cell, in row order
    header = ["i", "x, y", 'say "q"', "flag"]
    rows = [
        [0, 1.5, np.float64(-2.25), True],
        [-7, float("nan"), np.float64("inf"), False],
        [2**70, -0.0, float("-inf"), np.float64(-0.0)],
        ["a,b", 'say "hi"', 3, 1e-300],
        [np.int64(4), np.float32(0.5), np.bool_(True), None],
        ["", "line\nbreak", " padded ", 0.1],
        [np.float64("nan"), 1 / 3, -5e-324, 12],
        [],
        [""],
        [1.0],
    ]
    report = rp.Report("t")
    report.add_table("t", header, rows)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([rp.fmt(v) for v in row])
    assert report.csv_bytes("t") == buf.getvalue().encode("utf-8")


def test_atomic_write_leaves_no_partial(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"

    def boom(src, dst):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(RuntimeError):
        rp.atomic_write_bytes(str(target), b"data")
    assert not target.exists()
    leftovers = [p for p in tmp_path.iterdir()]
    assert leftovers == []


def test_atomic_write_gives_the_umask_mode(tmp_path):
    # a new file and a replaced one both end up 0o666 under the umask
    target = tmp_path / "out.csv"
    old = os.umask(0o022)
    try:
        for data in (b"first", b"second"):
            rp.atomic_write_bytes(str(target), data)
            assert stat.S_IMODE(target.stat().st_mode) == 0o644
    finally:
        os.umask(old)
    assert target.read_bytes() == b"second"


def test_write_report_takes_the_umask_of_each_write(tmp_path):
    # in one process, each write reads the umask in force then, not one read earlier
    report = rp.Report("t", files={"history.bin": b"\x00\x01"})
    report.add_table("t", ["a"], [[1.0]])
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o077, 0o600), (0o022, 0o644)):
            os.umask(umask)
            paths = rp.write_report(report, str(tmp_path / f"{umask:o}"))
            assert sorted(os.path.basename(p) for p in paths) == [
                "history.bin", "report.json", "t.csv"]
            assert [stat.S_IMODE(os.stat(p).st_mode) for p in paths] == [mode] * 3
    finally:
        os.umask(old)


def test_atomic_write_refuses_an_existing_temp_name(tmp_path, monkeypatch):
    # a temp name already taken is never truncated nor removed: the write fails
    target = tmp_path / "out.csv"
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f"out.csv.{bytes(8).hex()}.tmp"
    taken.write_bytes(b"someone else's")
    with pytest.raises(FileExistsError):
        rp.atomic_write_bytes(str(target), b"data")
    assert taken.read_bytes() == b"someone else's"
    assert not target.exists()


def test_verdict_lines():
    v = rp.check("thing", 0.5, 1.0)
    assert v.passed and v.line().startswith("PASS thing")
    w = rp.check("thing", 2.0, 1.0)
    assert not w.passed and w.line().startswith("FAIL thing")
    band = rp.check_window("order", 2.1, 2.0, 0.3)
    assert band.passed


# -- experiments ----------------------------------------------------------------------


def _run_twice_byte_identical(doc, tmp_path) -> rp.Report:
    """Run doc twice; every file written must match byte for byte."""
    conf = cfg.ExperimentConfig.from_dict(copy.deepcopy(doc))
    report = experiments.run(conf, outdir=str(tmp_path / "a"))
    experiments.run(conf, outdir=str(tmp_path / "b"))
    files_a, files_b = (sorted((tmp_path / d).iterdir()) for d in "ab")
    assert [p.name for p in files_a] == [p.name for p in files_b]
    assert "report.json" in [p.name for p in files_a]
    for a, b in zip(files_a, files_b):
        assert a.read_bytes() == b.read_bytes(), a.name
    return report


def test_conserve_deterministic(tmp_path):
    report = _run_twice_byte_identical(BASE_CONSERVE, tmp_path)
    assert report.all_passed()
    assert (tmp_path / "a" / "omega_series.csv").exists()


@pytest.mark.parametrize("doc", [TOY_BRACKET, TOY_JACOBI], ids=["bracket", "jacobi"])
def test_runs_byte_deterministic(doc, tmp_path):
    _run_twice_byte_identical(doc, tmp_path)


def test_solve_writes_snapshot(tmp_path):
    doc = {
        "experiment": "solve",
        "lattice": {"topology": "circle", "n_space": 32,
                    "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 16},
        "interaction": {"name": "phi4", "coupling": 1.0},
        "initial_data": {"phi": {"profile": "cosine", "amplitude": 0.4}},
    }
    conf = cfg.ExperimentConfig.from_dict(doc)
    rep = experiments.run(conf, outdir=str(tmp_path))
    assert rep.all_passed()
    with open(tmp_path / "history.bin", "rb") as fh:
        values, lat = lt.load_grid(fh)
    assert values.shape == (17, 32)
    assert lat.n_space == 32


def test_convergence_studies(tmp_path):
    doc = {
        "experiment": "convergence",
        "lattice": {"topology": "circle", "n_space": 128,
                    "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 128},
        "interaction": {"name": "free"},
        "study": "solution_error",
        "ladder": [32, 64, 128],
    }
    rep = experiments.run(cfg.ExperimentConfig.from_dict(doc), outdir=str(tmp_path))
    assert rep.all_passed()
    header, rows = rep.tables["ladder"]
    assert len(rows) == 3


def test_jacobi_experiment():
    doc = {
        "experiment": "jacobi",
        "lattice": {"topology": "circle", "n_space": 24,
                    "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 8},
        "interaction": {"name": "sine_gordon"},
        "observables": [
            {"kind": "slice_phi", "smearing": {"profile": "gaussian",
                                               "center": 2.0, "width": 0.6}},
            {"kind": "slice_pi", "smearing": {"profile": "cosine"}},
            {"kind": "poly_composite", "factors": [
                {"kind": "slice_phi", "smearing": {"profile": "sine"}},
                {"kind": "slice_pi", "smearing": {"profile": "cosine"}}]},
        ],
        "options": {"n_samples": 3},
        "seed": 1,
    }
    rep = experiments.run(cfg.ExperimentConfig.from_dict(doc))
    assert rep.all_passed()


# -- a verdict value that turns NaN fails (the builtin max drops a NaN after the first)


def _passed(doc) -> dict[str, bool]:
    rep = experiments.run(cfg.ExperimentConfig.from_dict(copy.deepcopy(doc)))
    return {v.name: v.passed for v in rep.verdicts}


def _nan_on_call(monkeypatch, owner, name, call):
    """Make owner.name return NaN on its call-th call and the real value otherwise."""
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return np.nan if len(calls) == call else real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def test_jacobi_nan_defects_fail(monkeypatch):
    real = ps.verify_axioms

    def nan_defects(*args, **kwargs):
        # NaN only in the second of each folded pair, and in the last pair defect
        rep = real(*args, **kwargs)
        axioms = dict(rep.axioms, antisymmetry=(rep.axioms["antisymmetry"][0], np.nan),
                      jacobi=(rep.axioms["jacobi"][0], np.nan))
        return dataclasses.replace(rep, axioms=axioms,
                                   pair_defects=(*rep.pair_defects[:2], np.nan))

    monkeypatch.setattr(ps, "verify_axioms", nan_defects)
    assert _passed(TOY_JACOBI) == {"antisymmetry": False, "jacobi": False,
                                   "leibniz": True, "bracket_revalidation": False}


def test_bracket_nan_relative_error_fails(monkeypatch):
    doc = _edited(TOY_BRACKET, lambda d: (d["observables"].append(_spacetime(0.9, 4.0)),
                                          d.update(tolerances={"bracket_oracle": 0.5})))
    assert _passed(doc) == {"bracket_vs_oracle": True}
    # the second of three pairs: its oracle value and so its relative error are NaN
    _nan_on_call(monkeypatch, oracle.PauliJordanOracle, "smeared_bracket", 2)
    assert _passed(doc) == {"bracket_vs_oracle": False}


def test_bracket_nan_pair_residual_fails(monkeypatch):
    doc = _edited(TOY_BRACKET, lambda d: d.pop("options"))
    assert _passed(doc) == {"pair_residual_max": True}
    _nan_on_call(monkeypatch, ps, "pair_defect", 2)
    assert _passed(doc) == {"pair_residual_max": False}


# -- the mode-sum oracle -----------------------------------------------------------------


def test_oracle_rejects_line():
    lat = lt.LatticeSpacetime("line", 32, 0.1, 0.05, 8)
    with pytest.raises(oracle.OracleError):
        oracle.PauliJordanOracle(lat, 1.0)


def test_oracle_equal_time_zero(circle):
    pj = oracle.PauliJordanOracle(circle, 1.0)
    assert np.max(np.abs(pj.commutator(0.0))) == 0.0


def test_oracle_velocity_comb(circle):
    pj = oracle.PauliJordanOracle(circle, 1.0)
    comb = pj.d_dt_commutator(0.0)
    assert np.max(np.abs(comb - pj.delta_comb())) < 1e-12
    # dominant spike is the discrete delta scale 1/dx
    assert abs(comb[0] - (circle.n_space + 1) / circle.circumference) < 1e-12


@pytest.mark.parametrize("n", [33, 65])
def test_oracle_velocity_comb_at_odd_n(n):
    # odd n has no mode j = n/2, so the comb is n delta_i0 / L with no (-1)^i term
    lat = lt.LatticeSpacetime("circle", n, 2 * np.pi / n, np.pi / n, 8)
    pj = oracle.PauliJordanOracle(lat, 1.0)
    assert np.max(np.abs(pj.d_dt_commutator(0.0) - pj.delta_comb())) < 1e-12


def test_oracle_guards_refuse_with_their_exception_and_message(circle, refuses):
    refuses([
        (lambda: oracle.PauliJordanOracle(lt.LatticeSpacetime("line", 32, 0.1, 0.05, 8)),
         oracle.OracleError, "mode-sum oracle requires circle topology"),
        (lambda: oracle.PauliJordanOracle(circle, -1.0),
         oracle.OracleError, "mass must be nonnegative"),
        (lambda: oracle.PauliJordanOracle(circle, 0.0).commutator(0.0),
         oracle.OracleError, "massless zero mode: give the field a mass"),
        (lambda: oracle.PauliJordanOracle(circle).moments(np.ones((circle.n_slices, 63))),
         oracle.OracleError, "smearings must cover the full grid"),
    ])


def test_oracle_smeared_antisymmetry(circle, rng):
    pj = oracle.PauliJordanOracle(circle, 1.0)
    f = rng.standard_normal((circle.n_slices, circle.n_space))
    g = rng.standard_normal((circle.n_slices, circle.n_space))
    fm, gm = pj.moments(f, g)
    assert abs(pj.smeared_bracket(fm, gm) + pj.smeared_bracket(gm, fm)) < 1e-12


def dense_pauli_jordan(lat, mass):
    """The oracle's definition as dense sums, the oracle's own oracle.

    G(t, .) sums every mode j = -(n//2)..n//2 at every site, and the smeared
    bracket is the quadruple sum of f(t, x) G(t' - t, x - x') g(t', x')
    dx dt dx' dt' over the grid twice.
    """
    n, L = lat.n_space, lat.circumference
    k = 2 * np.pi * np.arange(-(n // 2), n // 2 + 1) / L
    omega = np.sqrt(k**2 + mass**2)
    cos_kx = np.cos(np.outer(lat.x, k))  # (sites, modes)

    def commutator(t):
        return cos_kx @ (np.sin(omega * t) / (omega * L))

    def d_dt_commutator(t):
        return cos_kx @ (np.cos(omega * t) / L)

    def smeared_bracket(f, g):
        sep = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n  # x - x' on the circle
        total = 0.0
        for j, f_t in enumerate(f):
            for jp, g_t in enumerate(g):
                total += f_t @ commutator(lat.t[jp] - lat.t[j])[sep] @ g_t
        return total * (lat.dx * lat.dt) ** 2

    return commutator, d_dt_commutator, smeared_bracket


@pytest.mark.parametrize("n_space", [16, 17])
def test_oracle_matches_dense_mode_sums(n_space, rng):
    # even n has both modes j = +-n/2, odd n has neither
    lat = lt.LatticeSpacetime("circle", n_space, 2 * np.pi / n_space,
                              np.pi / n_space, 9)
    pj = oracle.PauliJordanOracle(lat, 0.7)
    commutator, d_dt_commutator, smeared_bracket = dense_pauli_jordan(lat, 0.7)
    for t in (0.0, 0.3, 1.7, -0.9):
        for got, ref in ((pj.commutator(t), commutator(t)),
                         (pj.d_dt_commutator(t), d_dt_commutator(t))):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)) + 1e-300
    for _ in range(3):
        f = rng.standard_normal((lat.n_slices, n_space))
        g = rng.standard_normal((lat.n_slices, n_space))
        ref = smeared_bracket(f, g)
        assert abs(pj.smeared_bracket(*pj.moments(f, g)) - ref) <= 1e-12 * abs(ref)


def test_oracle_smeared_bracket_holds_less_than_four_grids(rng):
    # one grid is 8 * (n_time + 1) * n_space bytes; the dense cos/sin tables
    # and their matmuls took 8 grids, the real FFT takes about 2
    lat = lt.LatticeSpacetime("circle", 512, 2 * np.pi / 512, np.pi / 512, 256)
    pj = oracle.PauliJordanOracle(lat, 1.0)
    f = rng.standard_normal((lat.n_slices, lat.n_space))
    g = rng.standard_normal((lat.n_slices, lat.n_space))
    tracemalloc.start()
    try:
        pj.smeared_bracket(*pj.moments(f, g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * lat.n_slices * lat.n_space


def test_importing_the_harness_leaves_numpy_fft_unloaded():
    # the oracle reaches numpy.fft when it runs, so a CLI call that never
    # consults it does not pay for the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(weilfield.__file__)))
    code = "import sys, weilfield.harness; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"


def _loaded_after_runs(docs, modules, tmp_path) -> list[str]:
    """Which of modules a fresh interpreter holds after running the config documents."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weilfield.__file__)))
    code = ("import json, sys\n"
            "from weilfield.harness import ExperimentConfig, run\n"
            "for i, doc in enumerate(json.loads(sys.argv[1])):\n"
            "    run(ExperimentConfig.from_dict(doc), f'{sys.argv[2]}/{i}')\n"
            "print(*(name for name in sys.argv[3:] if name in sys.modules))")
    return subprocess.run(
        [sys.executable, "-c", code, json.dumps(docs), str(tmp_path), *modules], check=True,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)).stdout.split()


def test_runs_that_draw_nothing_never_load_numpy_random(tmp_path):
    # only random_fourier profiles draw, and the run's generator is built at
    # the first draw; a jacobi run draws its samples
    root, workloads = _perfbench_workloads()
    loads = {name: "numpy.random" in _loaded_after_runs(
                 [workloads.config_doc(root, name, 0, toy=True)], ("numpy.random",),
                 tmp_path / name)
             for name in workloads.WORKLOADS}
    assert loads == {"bracket_oracle": False, "conserve_sg": False, "jacobi_triple": True}


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="without a built-in SHA-256 the config hash loads OpenSSL "
                           "through hashlib")
def test_runs_that_draw_nothing_never_load_openssl(tmp_path):
    # hashlib loads OpenSSL as _hashlib, and numpy.random loads it through
    # secrets and hmac; a jacobi run draws, and so does a random_fourier profile
    root, workloads = _perfbench_workloads()
    docs = [workloads.config_doc(root, name, 0, toy=True)
            for name in ("bracket_oracle", "conserve_sg")]
    for name in sorted(os.listdir(os.path.join(root, "configs"))):
        with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        if doc["experiment"] != "jacobi" and "random_fourier" not in text:
            docs.append(doc)
    assert {doc["experiment"] for doc in docs} == {"bracket", "conserve", "convergence",
                                                   "oracle_pj", "solve"}
    assert _loaded_after_runs(docs, ("_hashlib", "numpy.random"), tmp_path) == []


# -- the CLI ---------------------------------------------------------------------------------


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_pass_and_outputs(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    code = cli.main(["conserve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS omega_slice_drift" in printed
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "omega_series.csv").exists()


def test_cli_validates_the_config_again_only_for_an_override(tmp_path, monkeypatch):
    docs = []
    from_dict = cfg.ExperimentConfig.from_dict.__func__

    def counted(cls, doc):
        docs.append(doc)
        return from_dict(cls, doc)

    monkeypatch.setattr(cfg.ExperimentConfig, "from_dict", classmethod(counted))
    path = _write(tmp_path, TOY_JACOBI)
    assert cli.main(["jacobi", "--config", path]) == 0
    assert len(docs) == 1
    assert cli.main(["jacobi", "--config", path, "--seed", "3"]) == 0
    assert len(docs) == 3 and docs[-1]["seed"] == 3


def test_cli_tolerance_override_fails(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    code = cli.main(["conserve", "--config", path, "--tol", "1e-12"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_infinite_tolerance_override_exits_2(tmp_path, capsys):
    # an infinite bound would pass every drift
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    assert cli.main(["conserve", "--config", path, "--tol", "inf"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tolerances: omega_drift"), err


@pytest.mark.parametrize("name", cfg.EXPERIMENTS)
def test_cli_has_a_command_and_a_driver_per_experiment(name):
    with pytest.raises(SystemExit) as exc:
        cli.main([name.replace("_", "-"), "--help"])
    assert exc.value.code == 0
    assert callable(getattr(experiments, f"_run_{name}"))


def test_cli_command_config_mismatch(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    code = cli.main(["solve", "--config", path])
    assert code == 2


def test_cli_invalid_config(tmp_path):
    path = _write(tmp_path, {"experiment": "nope"})
    assert cli.main(["solve", "--config", path]) == 2


def test_cli_missing_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_line_solve_whose_wave_reaches_the_guard_band_passes(tmp_path, capsys):
    # on its last slice the shipped line solve's wave reaches the site next to
    # the guard band; the residual judges every site, as the leapfrog steps every site
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "solve_sine_gordon_line.json")
    assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("PASS eom_residual_max")
    with open(tmp_path / "history.bin", "rb") as fh:
        values, lat = lt.load_grid(fh)
    last = values.coeffs[-1, :, 0]
    assert not last[lat.guard_band].any() and last[lat.guard] != 0


def _shipped_with_seed(name: str, seed: bytes) -> bytes:
    """The bytes of a shipped config with its "seed": 0 replaced by seed."""
    path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    with open(path, "rb") as fh:
        text = fh.read()
    assert text.count(b'"seed": 0') == 1
    return text.replace(b'"seed": 0', b'"seed": ' + seed)


@pytest.mark.parametrize("text,message", [
    (b"\xff\xfe", "error: config is not UTF-8 text: "),
    (b"[" * 100_000, "error: config is not valid JSON: maximum recursion depth exceeded"),
    (_shipped_with_seed("conserve_sine_gordon.json", b"7" * 5000),
     "error: config is not valid JSON: Exceeds the limit (4300"),
], ids=["not_utf8", "nested_100000_deep", "seed_of_5000_digits"])
def test_cli_unreadable_config_file_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert cli.main(["conserve", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


# (command, edit of that command's base config, the start of its error line):
# each case is refused by the check it is named for, not by one that runs first
MALFORMED = {
    "lattice_without_n_space": ("conserve", lambda d: d["lattice"].pop("n_space"),
                                "lattice: n_space must be an integer, got None"),
    "lattice_without_n_time": ("conserve", lambda d: d["lattice"].pop("n_time"),
                               "lattice: n_time must be an integer, got None"),
    "interaction_without_name": ("conserve", lambda d: d["interaction"].pop("name"),
                                 "interaction: missing 'name'"),
    "array_profile_without_values":
        ("conserve", lambda d: d["initial_data"].update(phi={"profile": "array"}),
         "initial_data.phi: array profile needs values"),
    "n_space_not_a_number": ("conserve", lambda d: d["lattice"].update(n_space="abc"),
                             "lattice: n_space must be an integer, got 'abc'"),
    "n_space_zero": ("conserve", lambda d: d["lattice"].update(n_space=0),
                     "lattice: n_space must be at least 1, got 0"),
    "tolerance_not_a_number":
        ("conserve", lambda d: d.update(tolerances={"omega_drift": "abc"}),
         "tolerances: omega_drift must be a number, got 'abc'"),
    "tolerance_null": ("conserve", lambda d: d.update(tolerances={"omega_drift": None}),
                       "tolerances: omega_drift must be a number, got None"),
    "tolerance_inf":
        ("conserve", lambda d: d.update(tolerances={"omega_drift": float("inf")}),
         "tolerances: omega_drift must be a finite number, got inf"),
    "tolerance_nan":
        ("conserve", lambda d: d.update(tolerances={"omega_drift": float("nan")}),
         "tolerances: omega_drift must be a finite number, got nan"),
    "tolerance_negative":
        ("conserve", lambda d: d.update(tolerances={"omega_drift": -1e-3}),
         "tolerances: omega_drift must be nonnegative, got -0.001"),
    "tolerance_misspelled":
        ("conserve", lambda d: d.update(tolerances={"omega_drfit": 1e-12}),
         "tolerances: unknown tolerance 'omega_drfit'; did you mean 'omega_drift'?"),
    "tolerances_not_an_object": ("conserve", lambda d: d.update(tolerances=[1e-3]),
                                 "tolerances: must be a JSON object, got [0.001]"),
    "profile_amplitude_not_a_number":
        ("conserve", lambda d: d["initial_data"]["phi"].update(amplitude="x"),
         "initial_data.phi: amplitude must be a number, got 'x'"),
    "profile_kmax_not_a_number": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "random_fourier", "kmax": "many"}),
        "initial_data.phi: kmax must be an integer, got 'many'"),
    "initial_data_not_an_object": ("conserve", lambda d: d.update(initial_data=[1]),
                                   "initial_data must be a JSON object, got [1]"),
    "tangent_not_an_object": ("conserve", lambda d: d.update(tangents=[1, 2]),
                              "tangents: a tangent must be a JSON object, got 1"),
    "profile_not_an_object": ("conserve", lambda d: d["initial_data"].update(phi=3),
                              "initial_data.phi: a profile must be a JSON object, got 3"),
    "options_not_an_object": ("jacobi", lambda d: d.update(options="fast"),
                              "options: must be a JSON object, got 'fast'"),
    "option_misspelled": ("jacobi", lambda d: d["options"].update(n_sample=50),
                          "options: unknown jacobi option 'n_sample'; did you mean 'n_samples'?"),
    "option_of_another_experiment":
        ("bracket", lambda d: d["options"].update(n_samples=3),
         "options: unknown bracket option 'n_samples'"),
    "option_where_none_exist": ("conserve", lambda d: d.update(options={"fast": True}),
                                "unknown conserve config key 'options'"),
    # each experiment takes only the tolerances its driver reads
    "tolerance_of_conserve_on_jacobi": ("jacobi", lambda d: d.update(
        tolerances={"axiom_defect": 1e-9, "omega_drift": 1e-30}),
        "tolerances: unknown tolerance 'omega_drift'"),
    "tolerance_of_jacobi_on_conserve":
        ("conserve", lambda d: d.update(tolerances={"axiom_defect": 1e-30}),
         "tolerances: unknown tolerance 'axiom_defect'"),
    "tolerance_of_conserve_on_convergence":
        ("convergence", lambda d: d.update(tolerances={"omega_drift": 1e-30}),
         "tolerances: unknown tolerance 'omega_drift'"),
    "bracket_oracle_tolerance_without_the_oracle": ("bracket", lambda d: (
        d["options"].update(compare_oracle=False),
        d.update(tolerances={"bracket_oracle": 1e-30})),
        "tolerances: bracket_oracle bounds the oracle comparison, which runs only with"
        " compare_oracle true"),
    # the top level and the lattice name only their own keys
    "config_key_misspelled": ("jacobi", lambda d: d.update(optoins=d.pop("options")),
                              "unknown jacobi config key 'optoins'; did you mean 'options'?"),
    "config_key_unknown": ("conserve", lambda d: d.update(comment="a note"),
                           "unknown conserve config key 'comment'"),
    # and only the keys their experiment's driver reads
    "jacobi_initial_data": ("jacobi", lambda d: d.update(
        initial_data={"phi": {"profile": "gaussian", "widht": 0.3}}),
        "unknown jacobi config key 'initial_data'"),
    "jacobi_tangents": ("jacobi", lambda d: d.update(tangents=[{"phi": {"profile": "nonsense"}}]),
                        "unknown jacobi config key 'tangents'"),
    "jacobi_ladder": ("jacobi", lambda d: d.update(ladder=[16, 32]),
                      "unknown jacobi config key 'ladder'"),
    "jacobi_study": ("jacobi", lambda d: d.update(study="closedness"),
                     "unknown jacobi config key 'study'"),
    "conserve_observables": ("conserve", lambda d: d.update(observables=[]),
                             "unknown conserve config key 'observables'"),
    "conserve_ladder": ("conserve", lambda d: d.update(ladder=[16, 32]),
                        "unknown conserve config key 'ladder'"),
    "bracket_tangents": ("bracket", lambda d: d.update(tangents=[{}, {}]),
                         "unknown bracket config key 'tangents'"),
    "bracket_study": ("bracket", lambda d: d.update(study="omega_drift"),
                      "unknown bracket config key 'study'"),
    "convergence_observables": ("convergence", lambda d: d.update(observables=[]),
                                "unknown convergence config key 'observables'"),
    "convergence_options": ("convergence", lambda d: d.update(options={}),
                            "unknown convergence config key 'options'"),
    "lattice_key_misspelled": ("conserve", lambda d: d["lattice"].update(n_tme=8),
                               "lattice: unknown lattice key 'n_tme'; did you mean 'n_time'?"),
    # a long value is elided in its error line, as every value shown there is
    "topology_a_long_list":
        ("conserve", lambda d: d["lattice"].update(topology=[0] * 20_000),
         "lattice: topology must be one of ('circle', 'line'), got [0, 0, 0, 0, 0, 0, ...]"),
    "topology_a_long_string":
        ("conserve", lambda d: d["lattice"].update(topology="x" * 100_000),
         "lattice: topology must be one of ('circle', 'line'), got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    "lattice_key_of_another_block":
        ("conserve", lambda d: d["lattice"].update(mass=1.0),
         "lattice: unknown lattice key 'mass'"),
    # profiles, Cauchy data and smearings name only their own keys
    "tangent_profile_key_misspelled":
        ("conserve", lambda d: d["tangents"][0]["phi"].update(widht=0.01),
         "tangents[0].phi: unknown gaussian profile key 'widht'; did you mean 'width'?"),
    "profile_key_of_another_kind":
        ("conserve", lambda d: d["initial_data"]["phi"].update(width=0.3),
         "initial_data.phi: unknown cosine profile key 'width'"),
    "profile_amplitude_misspelled":
        ("conserve", lambda d: d["initial_data"]["pi"].update(amplitued=2.0),
         "initial_data.pi: unknown sine profile key 'amplitued'; did you mean 'amplitude'?"),
    "tangent_key_unknown": ("conserve", lambda d: d["tangents"][1].update(psi={}),
                            "tangents[1]: unknown Cauchy data key 'psi'; did you mean 'pi'?"),
    "initial_data_key_misspelled":
        ("conserve", lambda d: d["initial_data"].update(ph={"profile": "zero"}),
         "initial_data: unknown Cauchy data key 'ph'; did you mean 'phi'?"),
    "profile_kind_not_a_string":
        ("conserve", lambda d: d["initial_data"].update(phi={"profile": ["cosine"]}),
         "initial_data.phi: unknown profile ['cosine']"),
    "smearing_profile_key_misspelled": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(centre=2.0),
        "observables[0].smearing: unknown gaussian profile key 'centre'; did you mean 'center'?"),
    "spacetime_smearing_key_misspelled": ("bracket", lambda d: d["observables"][0][
        "smearing"].update(tmie={"profile": "constant"}),
        "observables[0].smearing: unknown spacetime smearing key 'tmie'; did you mean 'time'?"),
    # so do the interaction (per name) and each observable kind
    "interaction_key_of_another_interaction":
        ("conserve", lambda d: d["interaction"].update(mass=1.0),
         "interaction: unknown sine_gordon interaction key 'mass'"),
    "interaction_coupling_for_mass":
        ("bracket", lambda d: d["interaction"].update(coupling=2.0),
         "interaction: unknown mass interaction key 'coupling'"),
    "interaction_name_not_a_string":
        ("conserve", lambda d: d.update(interaction={"name": ["free"]}),
         "interaction: unknown interaction ['free']"),
    "observable_key_misspelled":
        ("bracket", lambda d: d["observables"][1].update(smaering={}),
         "observables[1]: unknown spacetime observable key 'smaering'; did you mean 'smearing'?"),
    "composite_smearing_ignored": ("jacobi", lambda d: d["observables"][2].update(
        smearing={"profile": "cosine"}),
        "observables[2]: unknown poly_composite observable key 'smearing'"),
    "composite_factor_key_misspelled":
        ("jacobi", lambda d: d["observables"][2]["factors"][1].update(knid="slice_pi"),
         "observables[2].factors[1]: unknown slice_pi observable key 'knid'; did you mean 'kind'?"),
    "array_values_not_numbers": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "array", "values": ["a"] * 128}),
        "initial_data.phi: values[0] must be a number, got 'a'"),
    "n_samples_not_a_number":
        ("jacobi", lambda d: d["options"].update(n_samples="five"),
         "n_samples must be an integer, got 'five'"),
    "sample_amplitude_not_a_number":
        ("jacobi", lambda d: d["options"].update(sample_amplitude="big"),
         "sample_amplitude must be a number, got 'big'"),
    "power_not_a_number": ("jacobi", lambda d: d["observables"][2].update(power="two"),
                           "power must be an integer, got 'two'"),
    "smearing_amplitude_not_a_number": ("jacobi", lambda d: d["observables"][1][
        "smearing"].update(amplitude="wide"),
        "observables[1].smearing: amplitude must be a number, got 'wide'"),
    "factor_not_an_object":
        ("jacobi", lambda d: d["observables"][2].update(factors=[7]),
         "observables[2].factors[0]: an observable must be a JSON object, got 7"),
    "spacetime_smearing_not_an_object":
        ("bracket", lambda d: d["observables"][0].update(smearing="wide"),
         "observables[0].smearing: must be a JSON object, got 'wide'"),
    "kmax_negative": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": -5}),
        "observables[1].smearing: kmax must be at least 0, got -5"),
    "kmax_minus_one": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": -1}),
        "observables[1].smearing: kmax must be at least 0, got -1"),
    "n_samples_zero": ("jacobi", lambda d: d["options"].update(n_samples=0),
                       "n_samples must be at least 1, got 0"),
    "n_samples_negative": ("jacobi", lambda d: d["options"].update(n_samples=-2),
                           "n_samples must be at least 1, got -2"),
    "observables_null": ("bracket", lambda d: d.update(observables=None),
                         "observables: must be a list, got None"),
    "observables_a_number": ("bracket", lambda d: d.update(observables=3),
                             "observables: must be a list, got 3"),
    "factors_a_number": ("jacobi", lambda d: d["observables"][2].update(factors=7),
                         "observables[2]: poly_composite needs a nonempty factors list"),
    "factors_true": ("jacobi", lambda d: d["observables"][2].update(factors=True),
                     "observables[2]: poly_composite needs a nonempty factors list"),
    "seed_negative": ("conserve", lambda d: d.update(seed=-1),
                      "seed must be at least 0, got -1"),
    "ladder_rung_zero": ("convergence", lambda d: d.update(ladder=[0, 16]),
                         "ladder: rung must be at least 1, got 0"),
    "gaussian_width_zero": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(width=0),
        "observables[0].smearing: width must be positive, got 0.0"),
    "gaussian_width_negative": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(width=-1),
        "observables[0].smearing: width must be positive, got -1.0"),
    "bump_width_zero": ("conserve", lambda d: d["tangents"][0].update(
        phi={"profile": "bump", "width": 0}),
        "tangents[0].phi: width must be positive, got 0.0"),
    "bump_width_negative": ("conserve", lambda d: d["tangents"][0].update(
        phi={"profile": "bump", "width": -1}),
        "tangents[0].phi: width must be positive, got -1.0"),
    "power_negative": ("jacobi", lambda d: d["observables"][2].update(power=-1),
                       "power must be at least 0, got -1"),
    # non-finite numbers; a string or a boolean for a number is in NOT_NUMBERS
    "sample_amplitude_nan":
        ("jacobi", lambda d: d["options"].update(sample_amplitude=float("nan")),
         "sample_amplitude must be a finite number, got nan"),
    "sample_amplitude_inf":
        ("jacobi", lambda d: d["options"].update(sample_amplitude=float("inf")),
         "sample_amplitude must be a finite number, got inf"),
    "dt_factor_nan": ("jacobi", lambda d: d["lattice"].update(dt_factor=float("nan")),
                      "lattice: dt_factor must be a finite number, got nan"),
    "extent_inf": ("conserve", lambda d: d["lattice"].update(extent=float("inf")),
                   "lattice: extent must be a finite number, got inf"),
    # spacings whose (dx dt)^2 overflows: the oracle's bracket takes it, and a
    # float power overflows by raising
    "extent_product_square_overflows": ("conserve", lambda d: d["lattice"].update(
        extent=3.2e121),
        "lattice: grid spacings must have normal squares and a finite (dx*dt)^2, got"
        " dx=2.5e+119, dt=1.25e+119"),
    "oracle_extent_1e80": ("bracket", lambda d: d["lattice"].update(extent=1e80),
        "lattice: grid spacings must have normal squares and a finite (dx*dt)^2, got"
        " dx=3.125e+78, dt=1.5625e+78"),
    "extent_square_underflows": ("conserve", lambda d: d["lattice"].update(extent=1e-300),
        "lattice: grid spacings must have normal squares and a finite (dx*dt)^2, got"
        " dx=7.8125e-303, dt=3.90625e-303"),
    "extent_square_subnormal": ("conserve", lambda d: d["lattice"].update(
        n_space=32, n_time=16, extent=3e-160),
        "lattice: grid spacings must have normal squares and a finite (dx*dt)^2, got"
        " dx=9.375e-162, dt=4.6875e-162"),
    "dx_nan": ("jacobi", lambda d: d.update(lattice={
        "topology": "circle", "n_space": 32, "dx": float("nan"), "dt": 0.01, "n_time": 8}),
        "lattice: dx must be a finite number, got nan"),
    "smearing_center_nan":
        ("jacobi", lambda d: d["observables"][0]["smearing"].update(center=float("nan")),
         "observables[0].smearing: center must be a finite number, got nan"),
    # counts that are not integers
    "n_samples_fraction": ("jacobi", lambda d: d["options"].update(n_samples=2.7),
                           "n_samples must be an integer, got 2.7"),
    "n_samples_true": ("jacobi", lambda d: d["options"].update(n_samples=True),
                       "n_samples must be an integer, got True"),
    "n_space_fraction": ("conserve", lambda d: d["lattice"].update(n_space=128.5),
                         "lattice: n_space must be an integer, got 128.5"),
    "n_time_fraction": ("conserve", lambda d: d["lattice"].update(n_time=8.5),
                        "lattice: n_time must be an integer, got 8.5"),
    "n_time_string": ("conserve", lambda d: d["lattice"].update(n_time="8"),
                      "lattice: n_time must be an integer, got '8'"),
    "guard_fraction": ("conserve", lambda d: d["lattice"].update(guard=2.5),
                       "lattice: guard must be an integer, got 2.5"),
    "seed_fraction": ("conserve", lambda d: d.update(seed=1.5),
                      "seed must be an integer, got 1.5"),
    "power_fraction": ("jacobi", lambda d: d["observables"][2].update(power=2.5),
                       "power must be an integer, got 2.5"),
    "kmax_fraction": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": 2.5}),
        "observables[1].smearing: kmax must be an integer, got 2.5"),
    "ladder_rung_fraction": ("convergence", lambda d: d.update(ladder=[16.5, 32]),
                             "ladder: rung must be an integer, got 16.5"),
    # the axioms take exactly three observables
    "observables_four": ("jacobi", lambda d: d["observables"].append(
        {"kind": "slice_phi", "smearing": {"profile": "gaussian", "widht": 0.3}}),
        "observables: the axioms take exactly three, not 4"),
    "observables_two": ("jacobi", lambda d: d["observables"].pop(),
                        "observables: the axioms take exactly three, not 2"),
    # the current pairs exactly two tangents
    "tangents_one": ("conserve", lambda d: d["tangents"].pop(),
                     "tangents: omega pairs exactly two, not 1"),
    "tangents_three": ("conserve", lambda d: d["tangents"].append(d["tangents"][0]),
                       "tangents: omega pairs exactly two, not 3"),
    "drift_tangents_three":
        ("convergence", lambda d: d["tangents"].append(d["tangents"][0]),
         "tangents: omega pairs exactly two, not 3"),
    # two smearings with a zero space profile: bracket and oracle are both
    # exactly 0, so a relative error between them has no scale
    "oracle_bracket_zero": ("bracket", lambda d: [
        o["smearing"].update(space={"profile": "zero"}) for o in d["observables"]],
        "observables 0 and 1: the oracle bracket is 0, so a relative error against it would"
        " measure nothing"),
    # the current's one-sided time stencil spans four slices
    "n_time_two": ("conserve", lambda d: d["lattice"].update(n_time=2),
                   "the current's one-sided time stencil needs at least 3 time steps, not 2"),
    # tangents with disjoint data: omega is exactly 0 on slice 0 and not after,
    # so a drift relative to slice 0 has no scale
    "omega_zero_on_slice_0": ("conserve", lambda d: d.update(
        lattice={"topology": "line", "n_space": 200, "extent": 20, "dt_factor": 0.5,
                 "n_time": 60, "guard": 4},
        interaction={"name": "phi4"},
        initial_data={"phi": {"profile": "bump", "center": 0}},
        tangents=[{"phi": {"profile": "bump", "center": -1, "width": 0.6}},
                  {"pi": {"profile": "bump", "center": 1, "width": 0.6}}]),
        "tangents: omega vanishes on slice 0, so a drift relative to it would measure nothing"),
    "lattice_dt_and_dt_factor": ("conserve", lambda d: d["lattice"].update(dt=0.01),
                                 "lattice: give dt or dt_factor, not both"),
    # a document that is not an object replaces the base config whole
    "config_a_json_array": ("conserve", [BASE_CONSERVE],
                            "config must be a JSON object"),
    "array_values_not_a_list": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "array", "values": 3}),
        "initial_data.phi: array profile values must be a list, got 3"),
    # an integer past the float range: float() raises rather than giving inf
    "amplitude_of_400_digits":
        ("conserve", lambda d: d["initial_data"]["phi"].update(amplitude=10**400),
         "initial_data.phi: amplitude must be a finite number, got 1000"),
    # the mode-sum oracle takes a massive free field and spacetime observables only
    "oracle_under_sine_gordon":
        ("bracket", lambda d: d.update(interaction={"name": "sine_gordon"}),
         "the mode-sum oracle needs the free or mass interaction"),
    "oracle_massless_zero_mode": ("bracket", lambda d: d.update(interaction={"name": "free"}),
                                  "massless zero mode: give the field a mass"),
    "oracle_mass_negative": ("bracket", lambda d: d["interaction"].update(mass=-1),
                             "mass must be nonnegative"),
    "oracle_slice_observable": ("bracket", lambda d: d["observables"][0].update(
        kind="slice_phi", smearing={"profile": "gaussian"}),
        "oracle comparison needs spacetime observables"),
    "bracket_one_observable": ("bracket", lambda d: d["observables"].pop(),
                               "bracket experiment needs at least two observables"),
    "solution_error_under_mass": ("convergence", lambda d: (
        d.pop("tangents"), d.update(study="solution_error", interaction={"name": "mass"})),
        "solution_error study needs a free field on the circle"),
    # zero tangents make every closedness error 0, and an order needs nonzero errors
    "closedness_zero_tangents":
        ("convergence", lambda d: d.update(study="closedness", tangents=[{}, {}]),
         "cannot fit an order to the errors [0.0, 0.0]: each must be finite and nonzero"),
}
BASES = {"conserve": BASE_CONSERVE, "jacobi": TOY_JACOBI, "bracket": TOY_BRACKET,
         "convergence": BASE_DRIFT}

DEGENERATE_LADDERS = {
    "one_rung": lambda d: d.update(ladder=[16]),
    "repeated_rung": lambda d: d.update(ladder=[16, 32, 16]),
    "zero_tangents": lambda d: d.update(tangents=[{}, {}]),
}


def _assert_usage_error(command, doc, tmp_path, capsys, message=""):
    """command exits 2 with one short stderr line, error: message..."""
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert len(err[0]) <= 150, len(err[0])


@pytest.mark.parametrize("command,edit,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_malformed_config_exits_2(command, edit, message, tmp_path, capsys):
    doc = _edited(BASES[command], edit) if callable(edit) else edit
    _assert_usage_error(command, doc, tmp_path, capsys, message)


# (command, edit, the start of its error line): a number must be a JSON number,
# so a numeric string or a boolean is refused where it sits, never converted
NOT_NUMBERS = {
    "mass_a_string": ("bracket", lambda d: d["interaction"].update(mass="2"),
                      "interaction: mass must be a number, got '2'"),
    "mass_true": ("bracket", lambda d: d["interaction"].update(mass=True),
                  "interaction: mass must be a number, got True"),
    "mass_nan": ("bracket", lambda d: d["interaction"].update(mass=float("nan")),
                 "interaction: mass must be a finite number, got nan"),
    "coupling_a_string": ("conserve", lambda d: d.update(
        interaction={"name": "phi4", "coupling": "1"}),
        "interaction: coupling must be a number, got '1'"),
    "smearing_amplitude_a_string": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(amplitude="2"),
        "observables[0].smearing: amplitude must be a number, got '2'"),
    "array_value_true": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "array", "values": [0.0] * 127 + [True]}),
        "initial_data.phi: values[127] must be a number, got True"),
}


# a boolean must be a JSON true or false: a string or a number is refused, never read
# by its truthiness
NOT_BOOLEANS = {
    "compare_oracle_a_string": ("bracket", lambda d: d["options"].update(compare_oracle="no"),
                                "options: compare_oracle must be true or false, got 'no'"),
    "compare_oracle_zero": ("bracket", lambda d: d["options"].update(compare_oracle=0),
                            "options: compare_oracle must be true or false, got 0"),
    "compare_oracle_one": ("bracket", lambda d: d["options"].update(compare_oracle=1),
                           "options: compare_oracle must be true or false, got 1"),
    "compare_oracle_null": ("bracket", lambda d: d["options"].update(compare_oracle=None),
                            "options: compare_oracle must be true or false, got None"),
}


@pytest.mark.parametrize("command,edit,message", [*NOT_NUMBERS.values(),
                                                  *NOT_BOOLEANS.values()],
                         ids=[*NOT_NUMBERS, *NOT_BOOLEANS])
def test_cli_number_that_is_not_a_number_names_its_path(command, edit, message, tmp_path,
                                                       capsys):
    doc = _edited(BASES[command], edit)
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit", DEGENERATE_LADDERS.values(),
                         ids=DEGENERATE_LADDERS.keys())
def test_cli_degenerate_ladder_exits_2(edit, tmp_path, capsys):
    _assert_usage_error("convergence", _edited(BASE_DRIFT, edit), tmp_path, capsys)


# tangent pairs that omega pairs to zero on every slice
VANISHING_OMEGA = {
    "conserve_zero_tangents": ("conserve", [{}, {}]),
    "conserve_identical_tangents": ("conserve", [BASE_CONSERVE["tangents"][0]] * 2),
    "drift_identical_tangents": ("convergence", [BASE_DRIFT["tangents"][1]] * 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,tangents", VANISHING_OMEGA.values(),
                         ids=VANISHING_OMEGA.keys())
def test_cli_vanishing_omega_exits_2(command, tangents, tmp_path, capsys):
    doc = dict(BASES[command], tangents=tangents)
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tangents"), err


def test_interior_drift_refuses_omega_vanishing_on_slice_1():
    # omega_interior_drift measures against slice 1 as omega_slice_drift does
    # against slice 0, so a zero there is refused the same way
    series = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(experiments._omega_series(series), series)
    with pytest.raises(cfg.ConfigError, match="omega vanishes on slice 1"):
        experiments._omega_series(series, 1)


@pytest.mark.filterwarnings("error")
def test_cli_integral_float_counts_pass(tmp_path):
    doc = _edited(TOY_JACOBI, lambda d: (d["lattice"].update(n_space=32.0, n_time=8.0),
                                          d["options"].update(n_samples=2.0),
                                          d.update(seed=2.0)))
    assert cli.main(["jacobi", "--config", _write(tmp_path, doc)]) == 0


@pytest.mark.filterwarnings("error")
def test_cli_poly_composite_power_zero_passes(tmp_path):
    # power 0 is the constant 1, whose Hamiltonian field is zero
    doc = _edited(TOY_JACOBI, lambda d: d["observables"][2].update(power=0))
    assert cli.main(["jacobi", "--config", _write(tmp_path, doc)]) == 0


def test_cli_misspelled_tolerance_names_the_key(tmp_path, capsys):
    # the default 1e-3 would otherwise judge a run that asked for 1e-12, and a
    # tolerance that only another experiment reads would judge nothing
    cases = [
        ("conserve", "omega_drfit", "; did you mean 'omega_drift'?"),
        ("jacobi", "omega_drift", ""),
        ("conserve", "axiom_defect", ""),
        ("convergence", "omega_drift", ""),
    ]
    for command, key, hint in cases:
        doc = _edited(BASES[command], lambda d: d.update(tolerances={key: 1e-12}))
        assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: tolerances: unknown tolerance {key!r}{hint}"]


@pytest.mark.parametrize("tolerances,argv", [({"bracket_oracle": 1e-30}, []),
                                             ({}, ["--tol", "1e-30"])],
                         ids=["config", "tol"])
def test_cli_bracket_oracle_tolerance_needs_the_oracle(tolerances, argv, tmp_path, capsys,
                                                       monkeypatch):
    # without the oracle the verdict is the pairs' admissibility, which this
    # bound does not judge; it is refused before any solve
    solves = []
    monkeypatch.setattr(ps, "solve_cauchy", lambda *a, **k: solves.append(a))
    doc = _edited(TOY_BRACKET, lambda d: (d["options"].update(compare_oracle=False),
                                          d.update(tolerances=tolerances)))
    assert cli.main(["bracket", "--config", _write(tmp_path, doc), *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: tolerances: bracket_oracle bounds the oracle comparison, "
        "which runs only with compare_oracle true"]
    assert solves == []


@pytest.mark.parametrize("name", cfg.EXPERIMENTS)
def test_cli_algebra_block_is_an_unknown_key(name, tmp_path, capsys):
    # a run's data is real, so a Weil algebra for it could change no result
    doc = {"experiment": name, "lattice": BASE_DRIFT["lattice"],
           "algebra": {"generators": 1, "orders": [2]}}
    assert cli.main([name.replace("_", "-"), "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown {name} config key 'algebra'"]


def _no_solve(monkeypatch) -> list:
    """The calls made to the solvers a convergence study runs, recorded in place of them."""
    solves = []
    monkeypatch.setattr(dyn, "solve_cauchy", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(dyn, "tangent_blocks", lambda *a, **k: solves.append(a))
    return solves


@pytest.mark.parametrize("key", ["initial_data", "tangents"])
def test_cli_solution_error_study_refuses_blocks_it_does_not_read(key, monkeypatch, tmp_path,
                                                                  capsys):
    # the study solves its own cosine, so Cauchy data and tangents would go unread
    solves = _no_solve(monkeypatch)
    doc = _edited(BASE_DRIFT, lambda d: (
        d.update(study="solution_error", interaction={"name": "free"}),
        d.pop("tangents"), d.update({key: BASE_CONSERVE[key]})))
    assert cli.main(["convergence", "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown solution_error study config key {key!r}"]
    assert solves == []


@pytest.mark.parametrize("study", ["nonsense", ["closedness"]], ids=["unknown", "a_list"])
def test_cli_unknown_study_exits_2_before_any_solve(study, monkeypatch, tmp_path, capsys):
    solves = _no_solve(monkeypatch)
    doc = _edited(BASE_DRIFT, lambda d: d.update(study=study))
    assert cli.main(["convergence", "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: study must be one of ('solution_error', 'omega_drift', 'closedness'), "
        f"got {study!r}"]
    assert solves == []


def test_cli_misspelled_option_names_the_key(tmp_path, capsys):
    # the default 5 samples would otherwise run where 50 were asked for
    doc = _edited(TOY_JACOBI, lambda d: d["options"].update(n_sample=50))
    assert cli.main(["jacobi", "--config", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: options: unknown jacobi option 'n_sample'; did you mean 'n_samples'?"]


def test_cli_misspelled_config_and_lattice_keys_name_the_key(tmp_path, capsys):
    # a top-level typo would otherwise drop the whole block, a key of another
    # experiment go unread and unchecked, and a lattice typo run the lattice's
    # own n_time
    cases = [
        ("jacobi", lambda d: d.update(optoins=d.pop("options")),
         "unknown jacobi config key 'optoins'; did you mean 'options'?"),
        ("jacobi", lambda d: d.update(initial_data={"phi": {"profile": "gaussian"}}),
         "unknown jacobi config key 'initial_data'"),
        ("conserve", lambda d: d.update(ladder=[16, 32]),
         "unknown conserve config key 'ladder'"),
        ("convergence", lambda d: d.update(tangent=d.pop("tangents")),
         "unknown convergence config key 'tangent'; did you mean 'tangents'?"),
        ("jacobi", lambda d: d["observables"].append({"kind": "slice_pi"}),
         "observables: the axioms take exactly three, not 4"),
        ("conserve", lambda d: d["lattice"].update(n_tme=8),
         "lattice: unknown lattice key 'n_tme'; did you mean 'n_time'?"),
    ]
    for command, edit, message in cases:
        doc = _edited(BASES[command], edit)
        assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_cli_misspelled_interaction_algebra_and_observable_keys_name_the_key(
        tmp_path, capsys):
    # each typo would otherwise give way to its key's default
    cases = [
        ("bracket", lambda d: d["interaction"].update(mas=3.0),
         "interaction: unknown mass interaction key 'mas'; did you mean 'mass'?"),
        ("jacobi", lambda d: d["observables"][2].update(powr=2),
         "observables[2]: unknown poly_composite observable key 'powr'; "
         "did you mean 'power'?"),
        ("jacobi", lambda d: d["observables"][2]["factors"][0].update(nmae="f"),
         "observables[2].factors[0]: unknown slice_phi observable key 'nmae'; "
         "did you mean 'name'?"),
    ]
    for command, edit, message in cases:
        doc = _edited(BASES[command], edit)
        assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _perfbench_workloads(module="workloads"):
    """The repository root and perfbench's module of that name."""
    root = os.path.join(os.path.dirname(__file__), "..")
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        return root, importlib.import_module(module)
    finally:
        sys.path.pop(0)


def test_adjoint_sweep_runs_inside_the_traced_differential(monkeypatch):
    # perfbench times dF through its span around poisson.differential, so
    # the bracket run's one sweep of both observables runs inside that span;
    # installing the tracer fails when a function it wraps is renamed away
    root, workloads = _perfbench_workloads()
    tracer = _perfbench_workloads("spans")[1].Tracer()
    tops, real = [], ps.smeared_gradient
    monkeypatch.setattr(ps, "smeared_gradient",
                        lambda *a, **k: tops.append(tracer.top) or real(*a, **k))
    with tracer.installed():
        assert all(_passed(workloads.config_doc(root, "bracket_oracle", 0, toy=True)).values())
    assert tops == ["poisson.differential"]


def test_shipped_configs_and_workloads_name_known_options():
    root, workloads = _perfbench_workloads()
    docs = []
    for name in sorted(os.listdir(os.path.join(root, "configs"))):
        with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    docs += [workloads.config_doc(root, name, 0, toy=toy)
             for name in workloads.WORKLOADS for toy in (False, True)]
    for doc in docs:
        conf = cfg.ExperimentConfig.from_dict(doc)
        assert set(conf.options) <= set(cfg.EXPERIMENTS[conf.experiment].options)


def test_cli_misspelled_profile_key_names_the_key(tmp_path, capsys):
    # the key would otherwise be ignored, and the run pass at width 0.5; the
    # error names the key and the path of the descriptor that holds it
    cases = [
        ("conserve", lambda d: d["tangents"][0]["phi"].update(widht=0.01),
         "tangents[0].phi: unknown gaussian profile key 'widht'; did you mean 'width'?"),
        ("conserve", lambda d: d["initial_data"]["pi"].update(amplitued=2.0),
         "initial_data.pi: unknown sine profile key 'amplitued'; did you mean 'amplitude'?"),
        ("conserve", lambda d: d["tangents"][1].update(pii={}),
         "tangents[1]: unknown Cauchy data key 'pii'; did you mean 'pi'?"),
        ("jacobi", lambda d: d["observables"][1]["smearing"].update(wavenumbr=2),
         "observables[1].smearing: unknown cosine profile key 'wavenumbr'; "
         "did you mean 'wavenumber'?"),
        ("jacobi", lambda d: d["observables"][2]["factors"][1]["smearing"].update(phse=1),
         "observables[2].factors[1].smearing: unknown cosine profile key 'phse'; "
         "did you mean 'phase'?"),
        ("bracket", lambda d: d["observables"][1]["smearing"]["time"].update(centre=0.5),
         "observables[1].smearing.time: unknown gaussian profile key 'centre'; "
         "did you mean 'center'?"),
        ("bracket", lambda d: d["observables"][0]["smearing"].update(spcae={}),
         "observables[0].smearing: unknown spacetime smearing key 'spcae'; "
         "did you mean 'space'?"),
        ("jacobi", lambda d: d["observables"][2].update(factors=[d["observables"][0], 7]),
         "observables[2].factors[1]: an observable must be a JSON object, got 7"),
    ]
    for command, edit, message in cases:
        doc = _edited(BASES[command], edit)
        assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_shipped_configs_and_workloads_name_known_profile_keys():
    # every profile of the shipped configs builds; the workloads run at toy
    # size, which also builds the jacobi driver's own random_fourier samples
    root, workloads = _perfbench_workloads()
    for name in sorted(os.listdir(os.path.join(root, "configs"))):
        conf = cfg.ExperimentConfig.from_file(os.path.join(root, "configs", name))
        rng = conf.rng()
        for desc in (conf.initial_data, *conf.tangents):
            experiments._build_tangent(desc, conf.lattice, rng)
        for desc in conf.observables:
            experiments._build_observable(desc, conf, rng)
    for name in workloads.WORKLOADS:
        assert all(_passed(workloads.config_doc(root, name, 0, toy=True)).values())


def test_bracket_oracle_transforms_each_grid_once(monkeypatch):
    doc = _edited(TOY_BRACKET, lambda d: (d["observables"].append(_spacetime(0.9, 4.0)),
                                          d.update(tolerances={"bracket_oracle": 0.5})))
    rffts = []
    real = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: rffts.append(None) or real(*a, **k))
    assert _passed(doc) == {"bracket_vs_oracle": True}
    assert len(rffts) == 3  # one per smearing, not one per smearing per pair


def test_zero_oracle_is_refused_before_any_adjoint_sweep(monkeypatch):
    doc = _edited(TOY_BRACKET, lambda d: d["observables"][1]["smearing"].update(
        space={"profile": "zero"}))
    sweeps = []
    monkeypatch.setattr(ps, "smeared_gradient", lambda *a: sweeps.append(a))
    with pytest.raises(cfg.ConfigError, match="observables 0 and 1: the oracle bracket is 0"):
        experiments.run(cfg.ExperimentConfig.from_dict(doc))
    assert sweeps == []


def test_cli_zero_oracle_bracket_exits_2(tmp_path, capsys):
    doc = _edited(TOY_BRACKET, lambda d: d["observables"][1]["smearing"].update(
        space={"profile": "zero"}))
    assert cli.main(["bracket", "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: observables 0 and 1: "), err


@pytest.mark.filterwarnings("error")
def test_cli_oracle_pj_mass_passes(tmp_path, capsys):
    doc = {"experiment": "oracle_pj",
           "lattice": {"topology": "circle", "n_space": 16,
                       "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 8},
           "interaction": {"name": "mass", "mass": 0.7}}
    out = tmp_path / "out"
    assert cli.main(["oracle-pj", "--config", _write(tmp_path, doc), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS equal_time_commutator: value=0.0000000000000000e+00 ")
    assert lines[1].startswith("PASS velocity_comb: ")
    assert (out / "commutator.csv").exists()


def test_cli_seed_override_negative_exits_2(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONSERVE)
    assert cli.main(["conserve", "--config", path, "--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed"), err


# phi4 with a large coupling and amplitude: the leapfrog overflows within a few steps
BLOW_UP = {
    "experiment": "solve",
    "lattice": {"topology": "circle", "n_space": 64,
                "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 2000},
    "interaction": {"name": "phi4", "coupling": 50},
    "initial_data": {"phi": {"profile": "cosine", "amplitude": 30}},
    "tangents": BASE_CONSERVE["tangents"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "conserve"])
def test_cli_non_finite_field_names_the_slice(command, tmp_path, capsys):
    doc = dict(BLOW_UP, experiment=command)
    if command == "solve":
        del doc["tangents"]  # a solve config takes no tangents
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err == ["error: the field is not finite at slice 6 (t = 0.294524)"]
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "conserve"])
def test_cli_spacing_with_a_subnormal_square_exits_2(command, tmp_path, capsys):
    # dx^2 = 9e-323 and dt^2 = 2e-323 are subnormal, with two or three
    # significant bits, so a solve's residual bound of 100 (dx^2 + dt^2) would
    # be 1e-320: the lattice refuses them before any run
    doc = copy.deepcopy(dict(BASE_CONSERVE, experiment=command))
    if command == "solve":
        del doc["tangents"]  # a solve config takes no tangents
    doc["lattice"].update(n_space=32, n_time=16, extent=3e-160)
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: lattice: grid spacings must have normal squares and a finite (dx*dt)^2, "
        "got dx=9.375e-162, dt=4.6875e-162"]
    assert captured.out == ""


def _nested(depth):
    """A list nested depth deep, built without recursion."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


# values whose whole repr would flood the one error line
HUGE_VALUES = {
    "tolerances_nested_500_deep": ("conserve", lambda d: d.update(tolerances=_nested(500))),
    "profile_name_5000_long": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "x" * 5000})),
    "n_time_4001_digits": ("conserve", lambda d: d["lattice"].update(n_time=-10 ** 4000)),
    "ladder_of_2000_repeated_rungs": ("convergence", lambda d: d.update(ladder=[16] * 2000)),
}


@pytest.mark.parametrize("command,edit", HUGE_VALUES.values(), ids=HUGE_VALUES.keys())
def test_cli_error_caps_the_value_it_shows(command, edit, tmp_path, capsys):
    assert cli.main([command, "--config", _write(tmp_path, _edited(BASES[command], edit))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and len(err[0]) < 200, err[0][:300]


@pytest.mark.filterwarnings("error")
def test_cli_drift_ladder_passes(tmp_path):
    # the undegenerate ladder the cases above start from
    assert cli.main(["convergence", "--config", _write(tmp_path, BASE_DRIFT)]) == 0


# -- property: no single-key mutation of a toy config escapes as a traceback --------

SWAPS = ("text", None, ["x"], {"k": 1}, True)


def _paths(node, prefix=()):
    """Key paths (dict keys and list indices) of every value inside node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replacements(holder, key):
    """Dropping the key, each type swap, and 0, a negative value and its string
    for a number; for an object's key, also renaming it by a typo (its last
    letter doubled)."""
    value = holder[key]
    out = [("drop",), *(("set", s) for s in SWAPS)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [("set", 0), ("set", -abs(value) or -1), ("stringify", str(value))]
    if isinstance(holder, dict):
        out.append(("rename", key + key[-1]))
    return out


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[command])
    *parents, key = draw(st.sampled_from(list(_paths(doc))))
    holder = functools.reduce(operator.getitem, parents, doc)
    mutation = draw(st.sampled_from(_replacements(holder, key)))
    if mutation[0] == "drop":
        del holder[key]
    elif mutation[0] == "rename":
        holder[mutation[1]] = holder.pop(key)
    else:
        holder[key] = copy.deepcopy(mutation[1])
    return command, doc, mutation[0] in ("rename", "stringify")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=mutated_configs())
def test_mutated_configs_never_raise(case, tmp_path_factory):
    # every key of every descriptor is known, so a renamed one is refused, and
    # every number must be a JSON number, so one turned into its string is too
    command, doc, refused = case
    try:
        cfg.ExperimentConfig.from_dict(copy.deepcopy(doc))
        rejected = False
    except cfg.ConfigError:
        rejected = True
    path = _write(tmp_path_factory.mktemp("mutated"), doc)
    code = cli.main([command, "--config", path])
    assert code in (0, 1, 2)
    if rejected or refused:
        assert code == 2


def test_every_renamed_key_exits_2(tmp_path):
    # the sampled renames above, made exhaustive: a typo in any key of any
    # descriptor of the four bases is refused, never run with a default
    ran = []
    for command, base in BASES.items():
        for *parents, key in _paths(base):
            doc = copy.deepcopy(base)
            holder = functools.reduce(operator.getitem, parents, doc)
            if isinstance(holder, dict):
                holder[key + key[-1]] = holder.pop(key)
                path = _write(tmp_path, doc)
                ran.append((command, *parents, key, cli.main([command, "--config", path])))
    assert [case for case in ran if case[-1] != 2] == []


def test_conserve_run_holds_less_than_one_history():
    # the shipped conserve config at 256 x 1024 under tracemalloc: the
    # streamed run holds a few slices, while the stored dual histories, the
    # fibers and the current took about seven real histories of
    # 8 * (n_time + 1) * n_space bytes
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "conserve_sine_gordon.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["lattice"]["n_time"] = 1024
    conf = cfg.ExperimentConfig.from_dict(doc)
    lat = conf.lattice
    assert (lat.topology, lat.n_space, lat.n_time) == ("circle", 256, 1024)
    tracemalloc.start()
    try:
        rep = experiments.run(conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_passed()
    assert peak < 8 * lat.n_slices * lat.n_space


def _spacetime(tc, xc):
    return {"kind": "spacetime", "smearing": {
        "time": {"profile": "gaussian", "center": tc, "width": 0.15},
        "space": {"profile": "gaussian", "center": xc, "width": 0.5}}}


# two spacetime sine-Gordon observables and a spacetime x slice_pi product
TOY_SPACETIME_JACOBI = dict(TOY_JACOBI, observables=[
    _spacetime(0.3, 2.0), _spacetime(0.5, 3.5),
    {"kind": "poly_composite", "factors": [
        _spacetime(0.4, 4.0), {"kind": "slice_pi", "smearing": {"profile": "cosine"}}]},
])


def _adjoint_sweeps(doc, monkeypatch):
    """(smeared_gradient calls, seeds they carry, base solves) of one passing run of doc."""
    sweeps, solves = [], []

    def counted(calls, fn):
        def call(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ps, "smeared_gradient", counted(sweeps, dyn.smeared_gradient))
    monkeypatch.setattr(ps, "solve_cauchy", counted(solves, dyn.solve_cauchy))
    assert experiments.run(cfg.ExperimentConfig.from_dict(copy.deepcopy(doc))).all_passed()
    seeds = sum(int(np.prod(np.shape(weights)[:-2])) for *_, weights in sweeps)
    return len(sweeps), seeds, len(solves)


def test_spacetime_jacobi_run_checks_pairs_inside_the_sample_scope(monkeypatch):
    # 19 seeds swept for the two-sample batch, all inside verify_axioms' one
    # scope; one scope per sample took 42, and pairs validated on their own
    # and a revalidation bracket outside it took 60.  The two spacetime input
    # observables share one sweep, so the 19 seeds take 18 sweeps.  dF'' of
    # {p1, p2} reuses the pairs' field objects, so its Hessian-vector products
    # sweep at the lifts [v1, v2] already swept at (21 seeds in 20 sweeps when
    # the bracket inverted each dF again).  The scope holds the base history
    # of the last point that needed one only, so the sweeps solve their base
    # 15 times (17 before), where a solve per seed took 21
    assert _adjoint_sweeps(TOY_SPACETIME_JACOBI, monkeypatch) == (18, 19, 15)


def test_bracket_run_takes_each_differential_once(monkeypatch):
    # one sweep carrying both observables' seeds at the single base point;
    # a sweep per observable took 2 sweeps, pair checks and bracket values
    # taken outside one sharing scope took 4.  The mass interaction is
    # affine, so the sweep reads a constant rho' and solves no base, where
    # a solve per sweep took 2 solves and one shared solve took 1
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "bracket_vs_oracle.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["lattice"].update(n_space=32, n_time=16)
    doc["tolerances"]["bracket_oracle"] = 0.5  # scheme order at 32 sites
    assert _adjoint_sweeps(doc, monkeypatch) == (1, 2, 0)


def test_sine_gordon_bracket_run_shares_one_base_solve(monkeypatch):
    # sine-Gordon's rho' depends on phi, so the one sweep of both
    # observables' seeds marches over one stored solve of the base point
    doc = _edited(TOY_BRACKET, lambda d: d.update(interaction={"name": "sine_gordon"},
                                                  options={"compare_oracle": False}))
    assert _adjoint_sweeps(doc, monkeypatch) == (1, 2, 1)


def _lattice_update(**keys):
    return lambda doc: doc["lattice"].update(keys)


_TOO_BIG = r"(lattice: )?a grid of \d+ x \d+ float64 sites has more bytes than numpy can size$"


@pytest.mark.parametrize("name, change, message", [
    # a 10^12-step history cannot be allocated, which numpy finds at once,
    # so the run asks for no memory and exits 2 with one error line
    pytest.param("solve_sine_gordon", _lattice_update(n_time=10**12), "Unable to allocate",
                 id="solve-n_time-1e12"),
    # a grid numpy cannot even size is refused when the lattice is built
    *(pytest.param(name, _lattice_update(n_time=10**19), _TOO_BIG,
                   id=f"{name.split('_')[0]}-n_time-1e19")
      for name in ("solve_sine_gordon", "conserve_sine_gordon", "oracle_pj_mass",
                   "convergence_free_field")),
    pytest.param("oracle_pj_mass", _lattice_update(n_space=10**19), _TOO_BIG,
                 id="oracle-n_space-1e19"),
    pytest.param("convergence_free_field", lambda doc: doc.update(ladder=[64, 10**20]),
                 _TOO_BIG, id="convergence-rung-1e20"),
    # the jacobi samples are drawn in one call: refused before it when numpy
    # cannot size the batch, and an unallocatable one is numpy's error
    pytest.param("jacobi_polynomial_triple",
                 lambda doc: doc["options"].update(n_samples=10**19),
                 r"options: \d+ samples of 2 x 32 float64 sites have more bytes than "
                 r"numpy can size$", id="jacobi-n_samples-1e19"),
    # on 8 sites the draw, 10 normals a profile, is the larger array
    pytest.param("jacobi_polynomial_triple",
                 lambda doc: (doc["lattice"].update(n_space=8),
                              doc["options"].update(n_samples=6 * 10**16)),
                 r"options: \d+ samples of 2 x 8 float64 sites have more bytes than "
                 r"numpy can size$", id="jacobi-n_samples-6e16-on-8-sites"),
    pytest.param("jacobi_polynomial_triple",
                 lambda doc: doc["options"].update(n_samples=10**12), "Unable to allocate",
                 id="jacobi-n_samples-1e12"),
])
def test_cli_unallocatable_run_exits_2(tmp_path, capsys, name, change, message):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    command = doc["experiment"].replace("_", "-")
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(f"error: {message}", err[0]), err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_jacobi_samples_exit_2_naming_the_first(tmp_path, capsys):
    # at this amplitude the second of the five samples overflows to inf, and
    # the batch is checked before any bracket, so no NaN verdict is reached
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "jacobi_polynomial_triple.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["options"]["sample_amplitude"] = 1.7e308
    assert cli.main(["jacobi", "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: options: sample_amplitude 1.7e+308 makes sample 1 non-finite"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude, where", [(1e160, "multiply"), (1e308, "reduce")])
def test_cli_overflowing_jacobi_axiom_terms_exit_2(amplitude, where, tmp_path, capsys):
    # the samples stay finite, but the Leibniz terms, cubic in them, pass 1e308
    # (at 1e308 already the sum of a sample's squares), so the run stops at
    # the first overflow rather than reading NaN verdicts
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "jacobi_polynomial_triple.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["options"]["sample_amplitude"] = amplitude
    assert cli.main(["jacobi", "--config", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: options: sample_amplitude {amplitude!r} makes the axiom terms overflow "
        f"(overflow encountered in {where})"]


def _bracket_at_1e200(doc, compare_oracle):
    for observable in doc["observables"]:
        observable["smearing"]["space"]["amplitude"] = 1e200
    doc["options"]["compare_oracle"] = compare_oracle
    if not compare_oracle:
        del doc["tolerances"]


def _tangents_at_1e200(doc):
    doc["tangents"][0]["phi"]["amplitude"] = 1e200
    doc["tangents"][1]["pi"]["amplitude"] = 1e200


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, edit", [
    ("bracket_vs_oracle", functools.partial(_bracket_at_1e200, compare_oracle=False)),
    ("bracket_vs_oracle", functools.partial(_bracket_at_1e200, compare_oracle=True)),
    ("conserve_sine_gordon", _tangents_at_1e200),
], ids=["bracket", "bracket_oracle", "conserve"])
def test_cli_overflowing_run_terms_exit_2(name, edit, tmp_path, capsys):
    # finite inputs whose products pass 1e308: the run stops at the first
    # overflow rather than writing nan or reading NaN verdicts
    path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    command = doc["experiment"]
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the {command} run's terms overflow (overflow encountered in multiply)"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_unstable_mass_bracket_exits_2_naming_a_slice(tmp_path, capsys, monkeypatch):
    # at mass 3000 the leapfrog is unstable; with no base solve to find the
    # overflow, the adjoint sweep refuses its non-finite lam, naming a slice
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "bracket_vs_oracle.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["lattice"].update(n_space=64, n_time=128)
    doc["interaction"]["mass"] = 3000
    doc["initial_data"] = {"phi": {"profile": "cosine", "amplitude": 0.1}}
    solves = []
    monkeypatch.setattr(ps, "solve_cauchy", lambda *a, **k: solves.append(a))
    assert cli.main(["bracket", "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the adjoint is not finite at slice "), err
    assert solves == []


def test_report_cites_tolerances():
    conf = cfg.ExperimentConfig.from_dict(copy.deepcopy(BASE_CONSERVE))
    rep = experiments.run(conf)
    for v in rep.verdicts:
        assert v.tolerance > 0
