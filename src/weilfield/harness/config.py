"""Experiment configuration: JSON documents with nested descriptors.

A config file is a single JSON object.  Required keys depend on the
experiment kind; shared descriptors:

    lattice      {topology, n_space, dx | extent, dt | dt_factor, n_time, guard?}
    interaction  {name, mass? , coupling?}
    algebra      {generators, orders}
    profiles     {profile: zero|constant|gaussian|bump|cosine|sine|kink|
                  random_fourier|array, ...parameters}

Spacetime smearings are separable:  {space: <profile>, time: <profile>}.

Every error in a descriptor is a ConfigError; from_dict names the key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .. import dynamics as dyn
from .. import lattice as lt
from ..weil import WeilAlgebra

EXPERIMENTS = (
    "solve", "conserve", "bracket", "jacobi", "convergence", "roundtrip", "oracle_pj",
)

DEFAULT_TOLERANCES = {
    "solve_residual": None,      # None: scaled from the grid at run time
    "omega_drift": 1e-3,
    "order_band": 0.3,
    "bracket_oracle": 1e-3,
    "axiom_defect": 1e-9,
    "roundtrip_phi": 1e-12,
    "comb_defect": 1e-9,
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def json_object(value, what: str) -> dict:
    """value itself when it is a JSON object, else a ConfigError naming what."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def number(desc: dict, key: str, default) -> float:
    """desc[key] (default when absent) as a finite float, or a ConfigError naming key."""
    value = desc.get(key, default)
    try:
        out = float(value)
    except (ArithmeticError, TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return out


def count(desc: dict, key: str, default: int | None, least: int) -> int:
    """desc[key] (default when absent) as an integer of at least least, or a ConfigError.

    An integral float such as 256.0 is that integer; a fraction, a boolean
    or a string is refused rather than truncated.
    """
    value = desc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _profile_array(desc: dict, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    desc = json_object(desc, "a profile")
    kind = desc.get("profile", "zero")
    amp = number(desc, "amplitude", 1.0)
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "constant":
        return np.full_like(x, amp)
    if kind in ("gaussian", "bump"):
        c = number(desc, "center", 0.0)
        w = number(desc, "width", 1.0)
        if not w > 0:
            raise ConfigError(f"width must be positive, got {w}")
        s = (x - c) / w
        if kind == "gaussian":
            return amp * np.exp(-0.5 * s ** 2)
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out
    if kind == "cosine":
        k = number(desc, "wavenumber", 1.0)
        ph = number(desc, "phase", 0.0)
        return amp * np.cos(k * x + ph)
    if kind == "sine":
        k = number(desc, "wavenumber", 1.0)
        ph = number(desc, "phase", 0.0)
        return amp * np.sin(k * x + ph)
    if kind == "kink":
        c = number(desc, "center", 0.0)
        return 4.0 * np.arctan(np.exp(x - c))
    if kind == "random_fourier":
        kmax = count(desc, "kmax", 4, 0)
        coeffs = rng.standard_normal((2, kmax + 1)) / np.arange(1, kmax + 2) ** 2
        span = x[-1] - x[0] + (x[1] - x[0])
        out = np.zeros_like(x)
        for k in range(kmax + 1):
            w = 2 * np.pi * k / span
            out += coeffs[0, k] * np.cos(w * x) + coeffs[1, k] * np.sin(w * x)
        return amp * out
    if kind == "array":
        if "values" not in desc:
            raise ConfigError("array profile needs values")
        try:
            arr = np.asarray(desc["values"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"array profile values must be numbers: {exc}") from exc
        if arr.shape != x.shape:
            raise ConfigError("array profile length must match n_space")
        return arr
    raise ConfigError(f"unknown profile {kind!r}")


def spatial_profile(desc: dict, lat: lt.LatticeSpacetime,
                    rng: np.random.Generator) -> np.ndarray:
    return _profile_array(desc, lat.x, rng)


def time_profile(desc: dict, lat: lt.LatticeSpacetime,
                 rng: np.random.Generator) -> np.ndarray:
    return _profile_array(desc, lat.t, rng)


def spacetime_profile(desc: dict, lat: lt.LatticeSpacetime,
                      rng: np.random.Generator) -> np.ndarray:
    """Separable smearing g(t, x) = time_profile(t) * space_profile(x)."""
    desc = json_object(desc, "a spacetime smearing")
    g_t = time_profile(desc.get("time", {"profile": "constant"}), lat, rng)
    g_x = spatial_profile(desc.get("space", {"profile": "zero"}), lat, rng)
    return np.outer(g_t, g_x)


def _lattice_from(desc: dict) -> lt.LatticeSpacetime:
    d = dict(desc)
    n_space = count(d, "n_space", None, 1)
    if "dx" in d and "extent" in d:
        raise ConfigError("give dx or extent, not both")
    if "extent" in d:
        dx = number(d, "extent", None) / n_space
    elif "dx" in d:
        dx = number(d, "dx", None)
    else:
        raise ConfigError("needs dx or extent")
    if "dt" in d and "dt_factor" in d:
        raise ConfigError("give dt or dt_factor, not both")
    if "dt_factor" in d:
        dt = number(d, "dt_factor", None) * dx
    elif "dt" in d:
        dt = number(d, "dt", None)
    else:
        raise ConfigError("needs dt or dt_factor")
    return lt.LatticeSpacetime(
        topology=d.get("topology", "circle"),
        n_space=n_space,
        dx=dx,
        dt=dt,
        n_time=count(d, "n_time", None, 1),
        guard=count(d, "guard", 2, 0),
    )


def _interaction_from(desc: dict) -> dyn.Interaction:
    d = dict(desc)
    name = d.pop("name")
    return dyn.interaction(name, **d)


def _tolerances_from(desc: dict) -> dict:
    if not isinstance(desc, dict):
        raise ValueError(f"must be a JSON object, got {desc!r}")
    for key in desc:
        if key not in DEFAULT_TOLERANCES:
            import difflib  # only a misspelled key pays for the import
            close = difflib.get_close_matches(key, DEFAULT_TOLERANCES, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"unknown tolerance {key!r}{hint}")
    tolerances = {**DEFAULT_TOLERANCES, **desc}
    for key, value in tolerances.items():
        if value is None and key == "solve_residual":
            continue  # scaled from the grid at run time
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if not math.isfinite(value) or value < 0:
            # an infinite bound passes every value and a negative one none
            raise ValueError(f"{key} must be finite and nonnegative, got {value!r}")
    return tolerances


def _objects(what: str):
    """A parser of a JSON list whose items must each be an object."""
    def parse(items) -> tuple[dict, ...]:
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"must be a list, got {items!r}")
        return tuple(json_object(item, what) for item in items)
    return parse


def _parsed(key: str, parse, desc):
    """parse(desc), with any error it raises turned into a ConfigError naming key."""
    try:
        return parse(desc)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        missing = "missing " if isinstance(exc, KeyError) else ""
        raise ConfigError(f"{key}: {missing}{exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description plus the raw document for hashing."""

    experiment: str
    lattice: lt.LatticeSpacetime
    interaction: dyn.Interaction
    algebra: WeilAlgebra
    initial_data: dict
    tangents: tuple[dict, ...]
    observables: tuple[dict, ...]
    tolerances: dict
    seed: int
    ladder: tuple[int, ...]
    study: str
    options: dict
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        experiment = doc.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {experiment!r}"
            )
        if "lattice" not in doc:
            raise ConfigError("config needs a lattice descriptor")
        lattice = _parsed("lattice", _lattice_from, doc["lattice"])
        inter = _parsed("interaction", _interaction_from,
                        doc.get("interaction", {"name": "free"}))
        algebra = _parsed("algebra", WeilAlgebra.from_descriptor,
                          doc.get("algebra", {"generators": 0, "orders": []}))
        tolerances = _parsed("tolerances", _tolerances_from, doc.get("tolerances", {}))
        ladder = _parsed("ladder", lambda rungs: tuple(count({"rung": n}, "rung", None, 1)
                                                       for n in rungs),
                         doc.get("ladder", ()))
        if len(set(ladder)) != len(ladder):
            raise ConfigError(f"ladder rungs must be distinct, got {list(ladder)}")
        return cls(
            experiment=experiment,
            lattice=lattice,
            interaction=inter,
            algebra=algebra,
            initial_data=json_object(
                doc.get("initial_data",
                        {"phi": {"profile": "zero"}, "pi": {"profile": "zero"}}),
                "initial_data"),
            tangents=_parsed("tangents", _objects("a tangent"), doc.get("tangents", ())),
            observables=_parsed("observables", _objects("an observable"),
                                doc.get("observables", ())),
            tolerances=tolerances,
            seed=count(doc, "seed", 0, 0),
            ladder=ladder,
            study=doc.get("study", "solution_error"),
            options=json_object(doc.get("options", {}), "options"),
            raw=doc,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def with_overrides(self, seed: int | None = None,
                       tol: float | None = None) -> "ExperimentConfig":
        doc = dict(self.raw)
        if seed is not None:
            doc["seed"] = int(seed)
        if tol is not None:
            tols = dict(doc.get("tolerances", {}))
            tols[_primary_tolerance_key(self.experiment)] = tol
            doc["tolerances"] = tols
        return ExperimentConfig.from_dict(doc)


def _primary_tolerance_key(experiment: str) -> str:
    return {
        "solve": "solve_residual",
        "conserve": "omega_drift",
        "bracket": "bracket_oracle",
        "jacobi": "axiom_defect",
        "convergence": "order_band",
        "roundtrip": "roundtrip_phi",
        "oracle_pj": "comb_defect",
    }[experiment]
