"""The benchmark's workloads: shipped configs, resized, with the seed set.

Each workload is one config from ``configs/`` run through
``weilfield.harness.experiments.run``.  Why each was chosen:

bracket_oracle  ``bracket_vs_oracle.json`` unchanged.  ``poisson.differential``
                does almost all the work (4 calls, each one batch of 512 dual
                directions through a streamed 512 x 256 x 128 solve), so this
                is where the differential's algorithm shows.
conserve_sg     ``conserve_sine_gordon.json`` at 1024 sites and 2048 steps.
                Two dual ``solve_cauchy`` runs that store their histories,
                the ``sin`` lift every step, then the zuckerman current; it
                never calls ``poisson`` and is the memory-heavy workload.
jacobi_triple   ``jacobi_polynomial_triple.json`` with 20 samples.  Nested
                lazily evaluated brackets on 32 sites: thousands of small
                differentials and Weil multiplies, so per-call overhead
                dominates.

Toy sizes run the same code paths in a fraction of a second; they warm the
interpreter before timing and drive the benchmark's self-check.
"""

from __future__ import annotations

import copy
import json
import os

WORKLOADS = {
    "bracket_oracle": ("bracket_vs_oracle.json", {}),
    "conserve_sg": ("conserve_sine_gordon.json",
                    {"lattice": {"n_space": 1024, "n_time": 2048}}),
    "jacobi_triple": ("jacobi_polynomial_triple.json", {"options": {"n_samples": 20}}),
}

# The bracket tolerance is widened at toy size only: at 32 sites the
# oracle agreement is at scheme order, far above the full-size 1e-3.
TOY = {
    "bracket_oracle": {"lattice": {"n_space": 32, "n_time": 16},
                       "tolerances": {"bracket_oracle": 0.5}},
    "conserve_sg": {"lattice": {"n_space": 128, "n_time": 256}},
    "jacobi_triple": {"options": {"n_samples": 2}},
}


def _merge(doc: dict, changes: dict) -> dict:
    out = copy.deepcopy(doc)
    for key, value in changes.items():
        if isinstance(value, dict):
            out[key] = {**out.get(key, {}), **value}
        else:
            out[key] = value
    return out


def config_doc(root: str, name: str, seed: int, toy: bool = False) -> dict:
    """The config document of a workload, with the workload seed as its seed."""
    filename, resize = WORKLOADS[name]
    with open(os.path.join(root, "configs", filename), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = _merge(doc, resize)
    if toy:
        doc = _merge(doc, TOY[name])
    doc["seed"] = seed
    return doc


def expected_counts(name: str, doc: dict) -> dict[str, int]:
    """Work counts the forward-mode algorithm must produce on this input.

    bracket_oracle: make_pair and the bracket evaluation each take dF of the
    two observables (4 calls), each one batch of 2*n_space directions and
    one solve_smeared over it; each solve lifts rho once per step plus once
    for rho' in the Taylor start.  conserve_sg: two unbatched solves.
    """
    lat = doc["lattice"]
    n, n_time = lat["n_space"], lat["n_time"]
    if name == "bracket_oracle":
        return {
            "poisson.differential.calls": 4,
            "poisson.differential.directions": 4 * 2 * n,
            "poisson.differential.batches": 4,
            "dynamics.solve_smeared.calls": 4,
            "dynamics.site_steps": 4 * 2 * n * n * n_time,
            "weil.apply_smooth.calls": 4 * (n_time + 1),
        }
    if name == "conserve_sg":
        return {
            "dynamics.solve_cauchy.calls": 2,
            "dynamics.site_steps": 2 * n * n_time,
            "weil.apply_smooth.calls": 2 * (n_time + 1),
        }
    return {}
