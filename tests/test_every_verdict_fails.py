"""Every verdict fails on a plausible defect: one committed one-token mutant each.

Each case edits one token of a library function's source (mutant), runs the
CLI on a shipped or small config, and asserts that the run exits 1 with its
verdict FAILed; the same config unmutated passes that verdict.  A check that
no plausible defect fails would check nothing (mutation analysis: DeMillo,
Lipton & Sayward, IEEE Computer 11(4), 1978; Jia & Harman, IEEE TSE 37, 2011).
"""

import __future__
import inspect
import json
import os
import re
import textwrap

import numpy as np
import pytest

from test_harness import (BASE_CONSERVE, BASE_DRIFT, TOY_BRACKET, TOY_JACOBI,
                          TOY_SPACETIME_JACOBI, _edited, _write)
from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield import poisson as ps
from weilfield import zuckerman as zk
from weilfield.harness import cli, experiments
from weilfield.harness.config import STUDY_KEYS
from weilfield.harness.oracle import PauliJordanOracle


def mutant(monkeypatch, owner, name, old, new):
    """Set owner.name to its function with the one occurrence of old replaced by new.

    The function's own source, unwrapped, is recompiled against its module's
    globals, so a decorator is applied again and nested closures are rebuilt.
    """
    fn = inspect.unwrap(getattr(owner, name))
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times in {name}"
    code = compile(source.replace(old, new), f"<mutant of {name}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, fn.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[fn.__name__])


def _shipped(name, edit=lambda doc: None):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return _edited(json.load(fh), edit)


def _ladder(doc):
    doc["ladder"] = [32, 64, 128]


# the configs the cases run
CONFIGS = {
    "solve_sine_gordon": _shipped("solve_sine_gordon",
                                  lambda d: d["lattice"].update(n_space=64, n_time=32)),
    "conserve": BASE_CONSERVE,
    "bracket_oracle": _edited(TOY_BRACKET,
                              lambda d: d.update(tolerances={"bracket_oracle": 0.5})),
    "bracket": _edited(TOY_BRACKET, lambda d: d.pop("options")),
    "jacobi": TOY_JACOBI,
    "jacobi_spacetime": TOY_SPACETIME_JACOBI,
    "solution_error": _shipped("convergence_free_field", _ladder),
    "omega_drift": _edited(BASE_DRIFT, _ladder),
    "closedness": _edited(BASE_DRIFT, lambda d: (_ladder(d), d.update(study="closedness"))),
    "oracle_pj_mass": _shipped("oracle_pj_mass"),
}

# (verdict, config, owner, function, old, new); the value each mutant read
# when the case was added is in the comment, its bound in parentheses
MUTANTS = [
    # 1.02 (4.2e-10): the force enters the step with its sign flipped
    ("eom_residual_max", "solve_sine_gordon", dyn, "leapfrog_blocks",
     "force -= nxt", "force += nxt"),
    # 0.20 (1e-3): a wrong one-sided time stencil on slice 0; the interior stays 1.6e-15
    ("omega_slice_drift", "conserve", lt, "_d_dt_start", "18 * c[1]", "17 * c[1]"),
    # 1.5e-4 (1e-12): the seam site's Laplacian reads its right neighbour twice
    ("omega_interior_drift", "conserve", lt, "_d2_dx2_bound",
     "np.add(edges, near[1], out=edges)", "np.add(edges, near[0], out=edges)"),
    # 2.0 (0.5): a sign slip in the Hamiltonian field of a covector
    ("bracket_vs_oracle", "bracket_oracle", ps, "hamiltonian_inversion",
     "-c.pi / dx", "c.pi / dx"),
    # 1.9 (1e-8): a sign slip in iota_v omega
    ("pair_residual_max", "bracket", ps, "insert_omega", "-v.phi * dx", "v.phi * dx"),
    # 1.05 (1e-9): omega made symmetric
    ("antisymmetry", "jacobi", ps, "omega_pairing", "- v.pi * w.phi", "+ v.pi * w.phi"),
    # 1.0 (1e-9): the directional derivative reads the base point, not its eps part
    ("jacobi", "jacobi", ps, "directional_derivative",
     "extract_top(out.phi, 1)", "extract_top(out.phi, 0)"),
    # 0.021 (1e-9): a product rule with a term missing
    ("leibniz", "jacobi", ps, "_leibniz", "a * x.phi + b * y.phi", "a * x.phi"),
    # 0.99 (0.39, the input residuals + 10 dx^2): the two Hessians of the bracket's
    # gradient swapped
    ("bracket_revalidation", "jacobi_spacetime", ps, "bracket",
     "(pp.F.gradient, x_f, d) - \\\n            directional_derivative(p.F.gradient",
     "(p.F.gradient, x_f, d) - \\\n            directional_derivative(pp.F.gradient"),
    # -0.06 (2 +/- 0.3): the Taylor start's dt^2 term taken at dt
    ("solution_error_order", "solution_error", dyn, "leapfrog_blocks",
     "(0.5 * dt2) * accel", "(0.5 * lat.dt) * accel"),
    # -0.03 (2 +/- 0.3): the one-sided time stencil of omega on slice 0
    ("omega_drift_order", "omega_drift", lt, "_d_dt_start", "18 * c[1]", "17 * c[1]"),
    # -0.12 (2 +/- 0.3): the centered space difference over dx, not 2 dx
    ("closedness_order", "closedness", lt, "_d_dx_into",
     "out /= 2 * lat.dx", "out /= lat.dx"),
    # 1.33 (1e-9): the commutator's modes oscillate as cos, not sin
    ("equal_time_commutator", "oracle_pj_mass", PauliJordanOracle, "commutator",
     "np.sin(omega * t)", "np.cos(omega * t)"),
    # 0.159 (1e-9): the modes j = +-n/2 counted once
    ("velocity_comb", "oracle_pj_mass", PauliJordanOracle, "_cos_sum",
     "spectrum[-1] *= 2.0", "spectrum[-1] *= 1.0"),
]


def _run(config, tmp_path, capsys):
    doc = CONFIGS[config]
    command = doc["experiment"].replace("_", "-")
    code = cli.main([command, "--config", _write(tmp_path, doc)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_each_config_passes_unmutated(config, tmp_path, capsys):
    code, lines = _run(config, tmp_path, capsys)
    assert code == 0, lines
    verdicts = {case[0] for case in MUTANTS if case[1] == config}
    passed = {line.split()[1].rstrip(":") for line in lines if line.startswith("PASS ")}
    assert verdicts <= passed, lines


@pytest.mark.parametrize("verdict, config, owner, name, old, new", MUTANTS,
                         ids=[case[0] for case in MUTANTS])
def test_each_verdict_fails_on_its_mutant(verdict, config, owner, name, old, new,
                                          tmp_path, capsys, monkeypatch):
    mutant(monkeypatch, owner, name, old, new)
    code, lines = _run(config, tmp_path, capsys)
    assert code == 1, lines
    assert any(line.startswith(f"FAIL {verdict}: ") for line in lines), lines


def test_spacetime_triple_fails_a_lie_bracket_sign_slip(tmp_path, capsys, monkeypatch):
    # the shipped polynomial triple cannot see this defect: its {p1, p2} brackets
    # two linear slice observables, so both Lie brackets it sums are 0
    mutant(monkeypatch, ps, "lie_bracket", "at) -", "at) +")
    code, lines = _run("jacobi_spacetime", tmp_path, capsys)
    assert code == 1, lines
    assert any(line.startswith(("FAIL antisymmetry: ", "FAIL jacobi: ")) for line in lines), lines


def test_every_verdict_has_a_mutant():
    # the verdicts the drivers can report: each check("name", ...) call,
    # check_window's f"{study}_order" for each convergence study, and each
    # axiom a verify_axioms report names
    named = set(re.findall(r'\bcheck(?:_window)?\("(\w+)"', inspect.getsource(experiments)))
    named |= {f"{study}_order" for study in STUDY_KEYS}
    lat = lt.LatticeSpacetime("circle", 8, 0.1, 0.05, 2)
    pair = ps.make_pair(ps.slice_phi_observable(np.ones(8), lat), lat)
    named |= set(ps.verify_axioms(pair, pair, pair, dyn.data_from_arrays(
        np.zeros((1, 8)), np.zeros((1, 8))), lat).axioms)
    assert sorted(case[0] for case in MUTANTS) == sorted(named)
