"""Experiment configuration: JSON documents with nested descriptors.

A config file is a single JSON object.  Required keys depend on the
experiment kind; shared descriptors:

    lattice      {topology, n_space, dx | extent, dt | dt_factor, n_time, guard?}
    interaction  {name, mass? (mass), coupling? (phi4)}
    profiles     {profile: zero|constant|gaussian|bump|cosine|sine|kink|
                  random_fourier|array, ...parameters}

Spacetime smearings are separable:  {space: <profile>, time: <profile>}.
EXPERIMENTS declares each experiment once: its CLI help, the top-level
keys its driver reads besides COMMON_KEYS, its options and its tolerances
with their defaults; STUDY_KEYS narrows a convergence config's keys to
those its study reads.  Every block takes known keys only: the top level,
the options and the tolerances those of its experiment, the lattice, the
interaction (the parameters dynamics.INTERACTION_PARAMS gives its name),
observables (OBSERVABLE_KEYS per kind), profiles (PROFILE_KEYS per kind),
Cauchy data (initial_data and each tangent: phi, pi) and spacetime smearings.

Every error in a descriptor is a ConfigError that names the descriptor's
path (located): from_dict checks the blocks it parses, and a run the
profiles and the descriptors that hold them when it builds them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import TypeAlias

import numpy as np

from .. import dynamics as dyn
from .. import lattice as lt

# the top-level keys every config takes; each experiment's driver reads others besides
COMMON_KEYS = ("experiment", "lattice", "interaction", "tolerances", "seed")


@dataclass(frozen=True)
class Experiment:
    """What one experiment's driver reads, declared once.

    help is its CLI help, config_keys its top-level keys besides COMMON_KEYS,
    options the keys of its options block, and tolerances its tolerance keys
    with their defaults; --tol sets the first.  A None default is scaled
    from the grid at run time.
    """

    help: str
    tolerances: dict
    config_keys: tuple[str, ...] = ()
    options: tuple[str, ...] = ()


# every experiment, each run by experiments._run_<name>, its command <name> with - for _
EXPERIMENTS = {
    "solve": Experiment("run the Cauchy solver and report residuals",
                        {"solve_residual": None}, ("initial_data",)),
    "conserve": Experiment("slice-by-slice conservation of the presymplectic form",
                           {"omega_drift": 1e-3, "omega_interior_drift": 1e-12},
                           ("initial_data", "tangents")),
    "bracket": Experiment(
        "brackets of configured observables (optionally vs the mode-sum oracle)",
        {"bracket_oracle": 1e-3}, ("observables", "initial_data", "options"),
        ("compare_oracle",)),
    "jacobi": Experiment("Poisson axiom defects for an observable triple",
                         {"axiom_defect": 1e-9}, ("observables", "options"),
                         ("n_samples", "sample_amplitude")),
    "convergence": Experiment(
        "error vs resolution ladder with a fitted order", {"order_band": 0.3},
        ("study", "ladder", "initial_data", "tangents")),
    "oracle_pj": Experiment("tabulate the free-field mode-sum commutator function",
                            {"comb_defect": 1e-9}),
}

# the top-level keys besides COMMON_KEYS that each convergence study reads
STUDY_KEYS = {"solution_error": ("study", "ladder"),
              "omega_drift": ("study", "ladder", "initial_data", "tangents"),
              "closedness": ("study", "ladder", "initial_data", "tangents")}

# the keys of each observable kind; a composite's name is built from its factors'
OBSERVABLE_KEYS = {
    "slice_phi": ("kind", "name", "smearing"),
    "slice_pi": ("kind", "name", "smearing"),
    "spacetime": ("kind", "name", "smearing"),
    "poly_composite": ("kind", "factors", "power"),
}

# the keys of each profile kind besides "profile" itself
PROFILE_KEYS = {
    "zero": (),
    "constant": ("amplitude",),
    "gaussian": ("amplitude", "center", "width"),
    "bump": ("amplitude", "center", "width"),
    "cosine": ("amplitude", "wavenumber", "phase"),
    "sine": ("amplitude", "wavenumber", "phase"),
    "kink": ("center",),
    "random_fourier": ("amplitude", "kmax"),
    "array": ("values",),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _shown(value) -> str:
    """repr(value) for a one-line error message, at most 100 characters long.

    reprlib elides deep nesting, long containers and long strings, and a
    repr still longer is cut, so a huge value cannot flood the line.
    """
    import reprlib  # only an error pays for the import
    text = reprlib.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


class SeededDraws:
    """The normal draws of np.random.default_rng(seed), in its order.

    Only random_fourier profiles draw, and importing numpy.random adds about
    5 MB to the peak memory of a run that draws nothing (it loads OpenSSL
    through secrets and hmac), so the generator is built at the first draw
    and reused for every later one.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._generator = None

    def standard_normal(self, size=None) -> np.ndarray:
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed)
        return self._generator.standard_normal(size)


# what the profile builders draw from: a run's stream or a caller's own generator;
# a string, so that defining the alias does not import numpy.random
Draws: TypeAlias = "np.random.Generator | SeededDraws"


def json_object(value, what: str) -> dict:
    """value itself when it is a JSON object, else a ConfigError naming what."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {_shown(value)}")
    return value


def number(desc: dict, key: str, default) -> float:
    """desc[key] (default when absent) as a finite float, or a ConfigError naming key.

    A JSON number is the one kind accepted: a numeric string such as "2"
    and a boolean are refused rather than converted, and so are NaN and
    the infinities.
    """
    return _finite(desc.get(key, default), key)


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {_shown(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be a finite number, got {_shown(value)}")
    return out


def boolean(desc: dict, key: str, default: bool) -> bool:
    """desc[key] (default when absent) when it is true or false, else a ConfigError naming key."""
    value = desc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {_shown(value)}")
    return value


def count(desc: dict, key: str, default: int | None, least: int) -> int:
    """desc[key] (default when absent) as an integer of at least least, or a ConfigError.

    An integral float such as 256.0 is that integer; a fraction, a boolean
    or a string is refused rather than truncated.
    """
    value = desc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {_shown(value)}")
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {_shown(value)}")
    return value


def _profile_array(desc: dict, x: np.ndarray, rng: Draws,
                   lead: tuple[int, ...] = ()) -> np.ndarray:
    """The profile desc on the sites x, one per index of the leading shape lead.

    random_fourier draws all of lead in one call, filled in C order, so each
    profile equals, bit for bit, that of one call per profile in that order.
    The kinds that draw nothing broadcast their one profile to a nonempty lead
    as a read-only view.
    """
    kind = json_object(desc, "a profile").get("profile", "zero")
    if not isinstance(kind, str) or kind not in PROFILE_KEYS:
        raise ConfigError(f"unknown profile {_shown(kind)}")
    _known_keys(desc, ("profile",) + PROFILE_KEYS[kind], f"{kind} profile key")
    amp = number(desc, "amplitude", 1.0)
    if kind == "random_fourier":
        kmax = count(desc, "kmax", 4, 0)
        coeffs = rng.standard_normal(lead + (2, kmax + 1)) / np.arange(1, kmax + 2) ** 2
        span = x[-1] - x[0] + (x[1] - x[0])
        out = np.zeros(lead + x.shape)
        for k in range(kmax + 1):
            w = 2 * np.pi * k / span
            out += (coeffs[..., 0, k, None] * np.cos(w * x)
                    + coeffs[..., 1, k, None] * np.sin(w * x))
        return amp * out
    if kind == "zero":
        one = np.zeros_like(x)
    elif kind == "constant":
        one = np.full_like(x, amp)
    elif kind in ("gaussian", "bump"):
        c = number(desc, "center", 0.0)
        w = number(desc, "width", 1.0)
        if not w > 0:
            raise ConfigError(f"width must be positive, got {w}")
        s = (x - c) / w
        if kind == "gaussian":
            one = amp * np.exp(-0.5 * s ** 2)
        else:
            one = np.zeros_like(x)
            inside = np.abs(s) < 1.0
            one[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    elif kind in ("cosine", "sine"):
        k = number(desc, "wavenumber", 1.0)
        ph = number(desc, "phase", 0.0)
        one = amp * (np.cos if kind == "cosine" else np.sin)(k * x + ph)
    elif kind == "kink":
        one = 4.0 * np.arctan(np.exp(x - number(desc, "center", 0.0)))
    else:  # an array, the one kind left
        if "values" not in desc:
            raise ConfigError("array profile needs values")
        values = desc["values"]
        if not isinstance(values, list):
            raise ConfigError(f"array profile values must be a list, got {_shown(values)}")
        one = np.array([_finite(v, f"values[{i}]") for i, v in enumerate(values)])
        if one.shape != x.shape:
            raise ConfigError("array profile length must match n_space")
    return np.broadcast_to(one, lead + x.shape) if lead else one


def cauchy_profiles(desc: dict) -> tuple[dict, dict]:
    """The phi and pi profiles of Cauchy data {phi, pi}, zero where absent."""
    desc = _known_keys(desc, ("phi", "pi"), "Cauchy data key")
    zero = {"profile": "zero"}
    return desc.get("phi", zero), desc.get("pi", zero)


def observable_kind(desc) -> str:
    """The kind of an observable descriptor {kind, ...}, whose keys must be that kind's."""
    kind = json_object(desc, "an observable").get("kind")
    if not isinstance(kind, str) or kind not in OBSERVABLE_KEYS:
        raise ConfigError(f"unknown observable kind {_shown(kind)}")
    _known_keys(desc, OBSERVABLE_KEYS[kind], f"{kind} observable key")
    return kind


def spatial_profile(desc: dict, lat: lt.LatticeSpacetime, rng: Draws,
                    lead: tuple[int, ...] = ()) -> np.ndarray:
    """The profile desc on lat's sites, with the leading shape lead (see _profile_array)."""
    return _profile_array(desc, lat.x, rng, lead)


def time_profile(desc: dict, lat: lt.LatticeSpacetime,
                 rng: Draws) -> np.ndarray:
    return _profile_array(desc, lat.t, rng)


def spacetime_profile(desc: dict, lat: lt.LatticeSpacetime, rng: Draws,
                      path: str = "smearing") -> np.ndarray:
    """Separable smearing g(t, x) = time_profile(t) * space_profile(x), found at path."""
    desc = located(path, _known_keys, desc, ("time", "space"), "spacetime smearing key")
    g_t = located(f"{path}.time", time_profile, desc.get("time", {"profile": "constant"}),
                  lat, rng)
    g_x = located(f"{path}.space", spatial_profile, desc.get("space", {"profile": "zero"}),
                  lat, rng)
    return np.outer(g_t, g_x)


def located(path: str, build, *args):
    """build(*args), any error it raises turned into a ConfigError prefixed by path.

    path is the descriptor's place in the config, such as lattice,
    tangents[0].phi or observables[1].smearing: from_dict checks the blocks
    it parses here, and a run the profiles it builds.  A missing key reads
    "path: missing 'key'".
    """
    try:
        return build(*args)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        missing = "missing " if isinstance(exc, KeyError) else ""
        raise ConfigError(f"{path}: {missing}{exc}") from exc


def _lattice_from(desc: dict) -> lt.LatticeSpacetime:
    d = dict(_known_keys(desc, ("topology", "n_space", "dx", "extent", "dt", "dt_factor",
                                "n_time", "guard"), "lattice key"))
    topology = d.get("topology", lt.CIRCLE)
    if topology not in (lt.CIRCLE, lt.LINE):
        raise ConfigError(f"topology must be one of {(lt.CIRCLE, lt.LINE)}, got {_shown(topology)}")
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
        topology=topology,
        n_space=n_space,
        dx=dx,
        dt=dt,
        n_time=count(d, "n_time", None, 1),
        guard=count(d, "guard", 2, 0),
    )


def _interaction_from(desc: dict) -> dyn.Interaction:
    d = dict(json_object(desc, "interaction"))
    name = d.pop("name")
    if not isinstance(name, str) or name not in dyn.INTERACTION_PARAMS:
        raise ConfigError(f"unknown interaction {_shown(name)}")
    _known_keys(d, dyn.INTERACTION_PARAMS[name], f"{name} interaction key")
    return dyn.interaction(name, **{key: number(d, key, None) for key in d})


def _known_keys(desc, known, what: str) -> dict:
    """desc when it is a JSON object whose keys are all in known, else a ConfigError.

    An unknown key would otherwise be ignored and its default used, so the
    error names it and the closest known key.
    """
    if not isinstance(desc, dict):
        raise ConfigError(f"must be a JSON object, got {_shown(desc)}")
    for key in desc:
        if key not in known:
            import difflib  # only a misspelled key pays for the import
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {_shown(close[0])}?" if close else ""
            raise ConfigError(f"unknown {what} {_shown(key)}{hint}")
    return desc


def _study_from(doc: dict) -> str:
    """A convergence config's study, refusing the blocks that study does not read."""
    study = doc.get("study", "solution_error")
    # a list or an object is unhashable, so it must not reach the lookup
    if not isinstance(study, str) or study not in STUDY_KEYS:
        raise ConfigError(f"study must be one of {tuple(STUDY_KEYS)}, got {_shown(study)}")
    _known_keys(doc, COMMON_KEYS + STUDY_KEYS[study], f"{study} study config key")
    return study


def _tolerances_from(desc: dict, defaults: dict) -> dict:
    tolerances = {**defaults, **_known_keys(desc, defaults, "tolerance")}
    for key, value in tolerances.items():
        if value is None and defaults[key] is None:
            continue  # scaled from the grid at run time
        # an infinite bound passes every value and a negative one none
        if _finite(value, key) < 0:
            raise ConfigError(f"{key} must be nonnegative, got {_shown(value)}")
    return tolerances


def _objects(what: str):
    """A parser of a JSON list whose items must each be an object."""
    def parse(items) -> tuple[dict, ...]:
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"must be a list, got {_shown(items)}")
        return tuple(json_object(item, what) for item in items)
    return parse


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description plus the raw document for hashing."""

    experiment: str
    lattice: lt.LatticeSpacetime
    interaction: dyn.Interaction
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
        # a list or an object is unhashable, so it must not reach the lookup
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {tuple(EXPERIMENTS)}, got {_shown(experiment)}"
            )
        spec = EXPERIMENTS[experiment]
        _known_keys(doc, COMMON_KEYS + spec.config_keys, f"{experiment} config key")
        study = _study_from(doc) if experiment == "convergence" else "solution_error"
        if "lattice" not in doc:
            raise ConfigError("config needs a lattice descriptor")
        lattice = located("lattice", _lattice_from, doc["lattice"])
        inter = located("interaction", _interaction_from,
                        doc.get("interaction", {"name": "free"}))
        tolerances = located("tolerances", _tolerances_from, doc.get("tolerances", {}),
                             spec.tolerances)
        ladder = located("ladder", lambda rungs: tuple(count({"rung": n}, "rung", None, 1)
                                                       for n in rungs),
                         doc.get("ladder", ()))
        if len(set(ladder)) != len(ladder):
            raise ConfigError(f"ladder rungs must be distinct, got {_shown(list(ladder))}")
        return cls(
            experiment=experiment,
            lattice=lattice,
            interaction=inter,
            initial_data=json_object(
                doc.get("initial_data",
                        {"phi": {"profile": "zero"}, "pi": {"profile": "zero"}}),
                "initial_data"),
            tangents=located("tangents", _objects("a tangent"), doc.get("tangents", ())),
            observables=located("observables", _objects("an observable"),
                                doc.get("observables", ())),
            tolerances=tolerances,
            seed=count(doc, "seed", 0, 0),
            ladder=ladder,
            study=study,
            options=located("options", _known_keys, doc.get("options", {}), spec.options,
                            f"{experiment} option"),
            raw=doc,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep a nest
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        return cls.from_json(text)

    def config_hash(self) -> str:
        """The SHA-256 hex digest of the raw document as canonical JSON (sorted keys).

        It is computed with CPython's built-in SHA-256, which hashlib itself
        falls back to, because importing hashlib loads OpenSSL: about 3.5 MB of
        peak memory for a digest of under 1 KB.  An interpreter built without
        the built-in hashes uses hashlib.
        """
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        try:  # the built-in SHA-256 moved from _sha256 to _sha2 in CPython 3.12
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:  # an interpreter built without the built-in hashes
            from hashlib import sha256
        return sha256(canonical.encode("utf-8")).hexdigest()

    def rng(self) -> SeededDraws:
        """A fresh stream of the draws of np.random.default_rng(seed); see SeededDraws."""
        return SeededDraws(self.seed)

    def with_overrides(self, seed: int | None = None,
                       tol: float | None = None) -> "ExperimentConfig":
        doc = dict(self.raw)
        if seed is not None:
            doc["seed"] = int(seed)
        if tol is not None:
            tols = dict(doc.get("tolerances", {}))
            tols[next(iter(EXPERIMENTS[self.experiment].tolerances))] = tol
            doc["tolerances"] = tols
        return ExperimentConfig.from_dict(doc)

