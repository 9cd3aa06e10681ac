"""Spans around weilfield's functions, installed from outside the package.

A Tracer replaces each traced function at every name that binds it (module
attributes such as ``dynamics.apply_smooth`` and ``poisson.solve_smeared``,
re-exports in package ``__init__`` files, and class attributes such as
``WeilValue.__rmul__``), so a call is counted whichever name it goes
through.  Module aliases (``dyn.solve_cauchy`` in the harness) read the
patched module attribute and need nothing extra.

Spans are aggregated as they close.  For each key the tracer keeps:

    calls    every invocation
    self_s   span time minus the time of the spans it directly caused
    total_s  span time of the outermost span of that key only, so a
             recursive call (nested ``differential``) is counted once

and the same three per layer (the module), where ``calls`` and ``total_s``
count only spans entered while no span of that layer is open.  Counters computed from
arguments (site steps, bytes, direction batches) are collected at the same
boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from weilfield import dynamics, lattice, poisson, weil, zuckerman
from weilfield.harness import experiments, oracle, report


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Per-key and per-layer span statistics plus argument-derived counters."""

    def __init__(self) -> None:
        self.keys: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.layers: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: Counter = Counter()
        self._pairs: set = set()
        self._stack: list[list] = []  # [key, time of direct children]
        self._open_keys: Counter = Counter()
        self._open_layers: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget all statistics; installed wrappers stay in place."""
        self.keys.clear()
        self.layers.clear()
        self.counters.clear()
        self._pairs.clear()

    @property
    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _call(self, key: str, layer: str, fn, args, kwargs):
        frame = [key, 0.0]
        outer_key = self._open_keys[key] == 0
        outer_layer = self._open_layers[layer] == 0
        self._stack.append(frame)
        self._open_keys[key] += 1
        self._open_layers[layer] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - t0
            self._stack.pop()
            self._open_keys[key] -= 1
            self._open_layers[layer] -= 1
            if self._stack:
                self._stack[-1][1] += span
            for stats, outer in ((self.keys[key], outer_key),
                                 (self.layers[layer], outer_layer)):
                stats.self_s += span - frame[1]
                if outer:
                    stats.total_s += span
            self.keys[key].calls += 1
            if outer_layer:
                self.layers[layer].calls += 1

    def wrap(self, key: str, fn, count=None):
        """A traced stand-in for fn; count(tracer, *args, **kwargs) runs first."""
        layer = key.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer, *args, **kwargs)
            return tracer._call(key, layer, fn, args, kwargs)

        return traced

    def _replace(self, fn, wrapper) -> int:
        """Bind wrapper at every weilfield module or class name bound to fn."""
        owners = [m for name, m in sys.modules.items()
                  if name == "weilfield" or name.startswith("weilfield.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if inspect.isclass(v) and v.__module__.startswith("weilfield")]
        hits = 0
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is fn:
                    self._patches.append((owner, name, value))
                    setattr(owner, name, wrapper)
                    hits += 1
        return hits

    @contextmanager
    def installed(self):
        """Trace every target function while the block runs."""
        try:
            for key, fn, count in _targets():
                if self._replace(fn, self.wrap(key, fn, count)) == 0:
                    raise RuntimeError(f"no name binds the traced function {key}")
            yield self
        finally:
            while self._patches:
                owner, name, value = self._patches.pop()
                setattr(owner, name, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        k, layer, c = self.keys, self.layers, self.counters
        diff = k["poisson.differential"]
        smeared, cauchy = k["dynamics.solve_smeared"], k["dynamics.solve_cauchy"]
        solve_s = smeared.total_s + cauchy.total_s
        smooth, d2 = k["weil.apply_smooth"], k["lattice.d2_dx2"]
        out = {
            "poisson.differential.calls": (diff.calls, "count"),
            "poisson.differential.directions": (c["differential.directions"], "count"),
            "poisson.differential.batches": (c["differential.batches"], "count"),
            "poisson.differential.self_s": (diff.self_s, "s"),
            "poisson.differential.total_s": (diff.total_s, "s"),
            "poisson.differential.distinct_ratio":
                (len(self._pairs) / diff.calls if diff.calls else 0.0, "ratio"),
        }
        for name in ("bracket", "lie_bracket", "verify_axioms"):
            stats = k[f"poisson.{name}"]
            out[f"poisson.{name}.calls"] = (stats.calls, "count")
            out[f"poisson.{name}.total_s"] = (stats.total_s, "s")
        for name, stats in (("solve_smeared", smeared), ("solve_cauchy", cauchy)):
            out[f"dynamics.{name}.calls"] = (stats.calls, "count")
            out[f"dynamics.{name}.self_s"] = (stats.self_s, "s")
            out[f"dynamics.{name}.total_s"] = (stats.total_s, "s")
        steps = c["dynamics.steps"]
        out.update({
            "dynamics.site_steps": (c["dynamics.site_steps"], "count"),
            "dynamics.step_ms": (1e3 * solve_s / steps if steps else 0.0, "ms"),
            "dynamics.site_steps_per_s":
                (c["dynamics.site_steps"] / solve_s if solve_s else 0.0, "1/s"),
            "dynamics.history_bytes": (c["dynamics.history_bytes"], "B"),
            "weil.apply_smooth.calls": (smooth.calls, "count"),
            "weil.apply_smooth.self_s": (smooth.self_s, "s"),
            "weil.apply_smooth.per_call_ms":
                (1e3 * smooth.self_s / smooth.calls if smooth.calls else 0.0, "ms"),
            "weil.mul.calls": (k["weil.mul"].calls, "count"),
            "weil.mul.self_s": (k["weil.mul"].self_s, "s"),
            "weil.add.calls": (k["weil.add"].calls, "count"),
            "weil.add.self_s": (k["weil.add"].self_s, "s"),
            "lattice.d2_dx2.calls": (d2.calls, "count"),
            "lattice.d2_dx2.self_s": (d2.self_s, "s"),
            "lattice.d2_dx2.per_call_ms":
                (1e3 * d2.self_s / d2.calls if d2.calls else 0.0, "ms"),
            "lattice.d2_dx2.bytes": (c["lattice.d2_dx2.bytes"], "B"),
            "lattice.other.self_s": (layer["lattice"].self_s - d2.self_s, "s"),
            "zuckerman.calls": (layer["zuckerman"].calls, "count"),
            "zuckerman.self_s": (layer["zuckerman"].self_s, "s"),
            "zuckerman.total_s": (layer["zuckerman"].total_s, "s"),
            "harness.build.self_s": (k["harness.build"].self_s, "s"),
            "harness.oracle.self_s": (k["harness.oracle"].self_s, "s"),
            "harness.write_report.self_s": (k["harness.write_report"].self_s, "s"),
            "harness.run.total_s": (k["harness.run"].total_s, "s"),
        })
        return out


# -- counters computed at the boundaries ------------------------------------------


def _digest(at) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(at.algebra.orders).encode())
    for part in (at.phi.coeffs, at.pi.coeffs):
        h.update(repr(part.shape).encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.digest()


def _count_differential(tracer: Tracer, F, at, **_kw) -> None:
    # F is held by the pair and its Hamiltonian field for the whole run, so
    # its identity names the observable within one iteration
    tracer._pairs.add((id(F), _digest(at)))


def _count_extract_top(tracer: Tracer, w, power) -> None:
    # differential reads the eps part of each direction batch with one
    # extract_top call of its own; the leading axis is the batch size
    if tracer.top == "poisson.differential":
        tracer.counters["differential.batches"] += 1
        tracer.counters["differential.directions"] += w.shape[0]


def _solve_counts(tracer: Tracer, data, lat, stored: bool) -> None:
    batch = int(np.prod(data.phi.shape[:-1]))
    tracer.counters["dynamics.steps"] += lat.n_time
    tracer.counters["dynamics.site_steps"] += batch * lat.n_space * lat.n_time
    if stored:
        tracer.counters["dynamics.history_bytes"] += \
            8 * lat.n_slices * batch * lat.n_space * data.algebra.dim


def _count_solve_cauchy(tracer: Tracer, data, inter, lat, **_kw) -> None:
    _solve_counts(tracer, data, lat, stored=True)


def _count_solve_smeared(tracer: Tracer, data, inter, lat, weights, **_kw) -> None:
    _solve_counts(tracer, data, lat, stored=False)


def _count_d2_dx2(tracer: Tracer, values, lat) -> None:
    # computed: one read of the input and one write of the output
    tracer.counters["lattice.d2_dx2.bytes"] += 2 * values.coeffs.nbytes


def _public_functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _targets():
    """(key, function, counter) for every traced function.

    WeilValue subtraction is negation plus addition and is counted as those.
    """
    value = weil.WeilValue
    pj = oracle.PauliJordanOracle
    out = [
        ("weil.apply_smooth", weil.apply_smooth, None),
        ("weil.mul", value.__mul__, None),
        ("weil.add", value.__add__, None),
        ("weil.add", value.__neg__, None),
        ("weil.extract_top", weil.extract_top, _count_extract_top),
        ("dynamics.solve_cauchy", dynamics.solve_cauchy, _count_solve_cauchy),
        ("dynamics.solve_smeared", dynamics.solve_smeared, _count_solve_smeared),
        ("poisson.differential", poisson.differential, _count_differential),
        ("poisson.bracket", poisson.bracket, None),
        ("poisson.lie_bracket", poisson.lie_bracket, None),
        ("poisson.verify_axioms", poisson.verify_axioms, None),
        ("harness.build", experiments._build_data, None),
        ("harness.build", experiments._build_tangent, None),
        ("harness.build", experiments._build_observable, None),
        ("harness.write_report", report.write_report, None),
        ("harness.run", experiments.run, None),
    ]
    out += [("harness.oracle", fn, None) for name, fn in vars(pj).items()
            if inspect.isfunction(fn) and (name == "__post_init__" or not name.startswith("_"))]
    out += [(f"lattice.{name}", fn, _count_d2_dx2 if name == "d2_dx2" else None)
            for name, fn in _public_functions(lattice)]
    out += [(f"zuckerman.{name}", fn, None) for name, fn in _public_functions(zuckerman)]
    return out
