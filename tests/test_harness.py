import copy
import functools
import json
import operator
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weilfield import lattice as lt
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


# -- report machinery ---------------------------------------------------------------


def test_fmt_roundtrips_floats():
    for x in (1 / 3, np.pi, 1e-300, -2.5e17):
        assert float(rp.fmt(x)) == x


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


def test_roundtrip_experiment():
    doc = {
        "experiment": "roundtrip",
        "lattice": {"topology": "circle", "n_space": 128,
                    "extent": 2 * np.pi, "dt_factor": 0.5, "n_time": 16},
        "interaction": {"name": "phi4", "coupling": 1.0},
        "ladder": [64, 128, 256],
        "seed": 5,
    }
    rep = experiments.run(cfg.ExperimentConfig.from_dict(doc))
    assert rep.all_passed()


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


def test_oracle_smeared_antisymmetry(circle, rng):
    pj = oracle.PauliJordanOracle(circle, 1.0)
    f = rng.standard_normal((circle.n_slices, circle.n_space))
    g = rng.standard_normal((circle.n_slices, circle.n_space))
    assert abs(pj.smeared_bracket(f, g) + pj.smeared_bracket(g, f)) < 1e-12


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


def test_cli_tolerance_override_fails(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    code = cli.main(["conserve", "--config", path, "--tol", "1e-12"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_command_config_mismatch(tmp_path, capsys):
    path = _write(tmp_path, copy.deepcopy(BASE_CONSERVE))
    code = cli.main(["solve", "--config", path])
    assert code == 2


def test_cli_invalid_config(tmp_path):
    path = _write(tmp_path, {"experiment": "nope"})
    assert cli.main(["solve", "--config", path]) == 2


def test_cli_missing_file(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


# (command, edit of that command's base config)
MALFORMED = {
    "lattice_without_n_space": ("conserve", lambda d: d["lattice"].pop("n_space")),
    "lattice_without_n_time": ("conserve", lambda d: d["lattice"].pop("n_time")),
    "interaction_without_name": ("conserve", lambda d: d["interaction"].pop("name")),
    "array_profile_without_values":
        ("conserve", lambda d: d["initial_data"].update(phi={"profile": "array"})),
    "n_space_not_a_number": ("conserve", lambda d: d["lattice"].update(n_space="abc")),
    "n_space_zero": ("conserve", lambda d: d["lattice"].update(n_space=0)),
    "algebra_order_below_two": ("conserve", lambda d: d.update(algebra={"orders": [1]})),
    "tolerance_not_a_number":
        ("conserve", lambda d: d.update(tolerances={"omega_drift": "abc"})),
    "tolerance_null": ("conserve", lambda d: d.update(tolerances={"omega_drift": None})),
    "profile_amplitude_not_a_number":
        ("conserve", lambda d: d["initial_data"]["phi"].update(amplitude="x")),
    "profile_kmax_not_a_number": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "random_fourier", "kmax": "many"})),
    "initial_data_not_an_object": ("conserve", lambda d: d.update(initial_data=[1])),
    "tangent_not_an_object": ("conserve", lambda d: d.update(tangents=[1, 2])),
    "profile_not_an_object": ("conserve", lambda d: d["initial_data"].update(phi=3)),
    "options_not_an_object": ("conserve", lambda d: d.update(options="fast")),
    "array_values_not_numbers": ("conserve", lambda d: d["initial_data"].update(
        phi={"profile": "array", "values": ["a"] * 128})),
    "n_samples_not_a_number":
        ("jacobi", lambda d: d["options"].update(n_samples="five")),
    "sample_amplitude_not_a_number":
        ("jacobi", lambda d: d["options"].update(sample_amplitude="big")),
    "power_not_a_number": ("jacobi", lambda d: d["observables"][2].update(power="two")),
    "smearing_amplitude_not_a_number": ("jacobi", lambda d: d["observables"][1][
        "smearing"].update(amplitude="wide")),
    "factor_not_an_object":
        ("jacobi", lambda d: d["observables"][2].update(factors=[7])),
    "spacetime_smearing_not_an_object":
        ("bracket", lambda d: d["observables"][0].update(smearing="wide")),
    "kmax_negative": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": -5})),
    "kmax_minus_one": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": -1})),
    "n_samples_zero": ("jacobi", lambda d: d["options"].update(n_samples=0)),
    "n_samples_negative": ("jacobi", lambda d: d["options"].update(n_samples=-2)),
    "observables_null": ("bracket", lambda d: d.update(observables=None)),
    "observables_a_number": ("bracket", lambda d: d.update(observables=3)),
    "factors_a_number": ("jacobi", lambda d: d["observables"][2].update(factors=7)),
    "factors_true": ("jacobi", lambda d: d["observables"][2].update(factors=True)),
    "seed_negative": ("conserve", lambda d: d.update(seed=-1)),
    "ladder_rung_zero": ("convergence", lambda d: d.update(ladder=[0, 16])),
    "gaussian_width_zero": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(width=0)),
    "gaussian_width_negative": ("jacobi", lambda d: d["observables"][0][
        "smearing"].update(width=-1)),
    "bump_width_zero": ("conserve", lambda d: d["tangents"][0].update(
        phi={"profile": "bump", "width": 0})),
    "bump_width_negative": ("conserve", lambda d: d["tangents"][0].update(
        phi={"profile": "bump", "width": -1})),
    "power_negative": ("jacobi", lambda d: d["observables"][2].update(power=-1)),
    # non-finite numbers
    "sample_amplitude_nan":
        ("jacobi", lambda d: d["options"].update(sample_amplitude=float("nan"))),
    "sample_amplitude_inf":
        ("jacobi", lambda d: d["options"].update(sample_amplitude=float("inf"))),
    "dt_factor_nan": ("jacobi", lambda d: d["lattice"].update(dt_factor=float("nan"))),
    "extent_inf": ("conserve", lambda d: d["lattice"].update(extent=float("inf"))),
    "dx_nan": ("jacobi", lambda d: d.update(lattice={
        "topology": "circle", "n_space": 32, "dx": float("nan"), "dt": 0.01, "n_time": 8})),
    "smearing_center_nan":
        ("jacobi", lambda d: d["observables"][0]["smearing"].update(center=float("nan"))),
    # counts that are not integers
    "n_samples_fraction": ("jacobi", lambda d: d["options"].update(n_samples=2.7)),
    "n_samples_true": ("jacobi", lambda d: d["options"].update(n_samples=True)),
    "n_space_fraction": ("conserve", lambda d: d["lattice"].update(n_space=128.5)),
    "n_time_fraction": ("conserve", lambda d: d["lattice"].update(n_time=8.5)),
    "n_time_string": ("conserve", lambda d: d["lattice"].update(n_time="8")),
    "guard_fraction": ("conserve", lambda d: d["lattice"].update(guard=2.5)),
    "seed_fraction": ("conserve", lambda d: d.update(seed=1.5)),
    "power_fraction": ("jacobi", lambda d: d["observables"][2].update(power=2.5)),
    "kmax_fraction": ("jacobi", lambda d: d["observables"][1].update(
        smearing={"profile": "random_fourier", "kmax": 2.5})),
    "ladder_rung_fraction": ("convergence", lambda d: d.update(ladder=[16.5, 32])),
}
BASES = {"conserve": BASE_CONSERVE, "jacobi": TOY_JACOBI, "bracket": TOY_BRACKET,
         "convergence": BASE_DRIFT}

DEGENERATE_LADDERS = {
    "one_rung": lambda d: d.update(ladder=[16]),
    "repeated_rung": lambda d: d.update(ladder=[16, 32, 16]),
    "zero_tangents": lambda d: d.update(tangents=[{}, {}]),
}


def _assert_usage_error(command, doc, tmp_path, capsys):
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("command,edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_malformed_config_exits_2(command, edit, tmp_path, capsys):
    _assert_usage_error(command, _edited(BASES[command], edit), tmp_path, capsys)


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
    assert cli.main([command, "--config", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1, err
    assert re.fullmatch(r"error: the field is not finite at slice \d+ \(t = \S+\)", err[0])
    assert captured.out == ""


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


def _replacements(value):
    """Dropping the key, each type swap, and 0 and a negative value for a number."""
    out = [("drop",), *(("set", s) for s in SWAPS)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [("set", 0), ("set", -abs(value) or -1)]
    return out


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    doc = copy.deepcopy(BASES[command])
    *parents, key = draw(st.sampled_from(list(_paths(doc))))
    holder = functools.reduce(operator.getitem, parents, doc)
    mutation = draw(st.sampled_from(_replacements(holder[key])))
    if mutation[0] == "drop":
        del holder[key]
    else:
        holder[key] = copy.deepcopy(mutation[1])
    return command, doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=mutated_configs())
def test_mutated_configs_never_raise(case, tmp_path_factory):
    command, doc = case
    try:
        cfg.ExperimentConfig.from_dict(copy.deepcopy(doc))
        rejected = False
    except cfg.ConfigError:
        rejected = True
    path = _write(tmp_path_factory.mktemp("mutated"), doc)
    code = cli.main([command, "--config", path])
    assert code in (0, 1, 2)
    if rejected:
        assert code == 2


def test_conserve_run_holds_at_most_eight_histories():
    # the traced peak of the shipped conserve config, in real-history sizes
    # 8 * (n_time + 1) * n_space bytes: the dual solves, the fibers and one
    # current built in place stay near 7; building the current per
    # diagnostic, from shifted copies, took it past 12
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "conserve_sine_gordon.json")
    conf = cfg.ExperimentConfig.from_file(path)
    lat = conf.lattice
    assert (lat.n_space, lat.n_time) == (256, 512)
    tracemalloc.start()
    try:
        rep = experiments.run(conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_passed()
    assert peak <= 8 * (8 * lat.n_slices * lat.n_space)


def test_report_cites_tolerances():
    conf = cfg.ExperimentConfig.from_dict(copy.deepcopy(BASE_CONSERVE))
    rep = experiments.run(conf)
    for v in rep.verdicts:
        assert v.tolerance > 0
