"""Discretized 1+1D globally hyperbolic spacetimes.

A lattice is a uniform (time x space) grid over either a spatial circle or
a spatial line segment.  Constant-time rows are the Cauchy slices.  The
fixed conventions, chosen once so that the canonical bracket comes out as
{phi, pi} = +delta:

* signature (+,-), volume form dt ^ dx;
* a ``Current`` stores an (m-1)-form J = t_component * dx + x_component * dt,
  so the pullback to a slice is the t_component and the exterior derivative
  is (d_t t_component - d_x x_component) * vol;
* ``hodge_d`` realizes *d(psi) as t_component = d_t psi, x_component = d_x psi,
  hence divergence(hodge_d(psi)) is the wave operator d_t^2 - d_x^2.

All stencils are centered second order (one-sided second order at ends),
and all grid operations act coefficientwise on Weil values, so they commute
exactly with coefficient extraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO

import numpy as np

from .weil import WeilAlgebra, WeilValue

CIRCLE = "circle"
LINE = "line"

_TIME_AXIS = 0
_SPACE_AXIS = -2  # coefficient axis is last


class LatticeError(ValueError):
    """Invalid lattice construction or use."""


class SupportError(LatticeError):
    """A spacelike-compact support requirement is violated."""


@dataclass(frozen=True)
class LatticeSpacetime:
    """Uniform grid on a 1+1D cylinder (circle) or slab (line).

    ``guard`` only matters on the line: that many sites at each edge form a
    band where fields must vanish, standing in for spatial infinity.  Runs
    are valid only while causal cones of the data stay off the band.
    """

    topology: str
    n_space: int
    dx: float
    dt: float
    n_time: int
    guard: int = 2

    def __post_init__(self) -> None:
        if self.topology not in (CIRCLE, LINE):
            raise LatticeError(f"unknown topology {self.topology!r}")
        if self.n_space < 8:
            raise LatticeError("need at least 8 spatial sites")
        if self.n_time < 2:
            raise LatticeError("need at least 2 time steps")
        if self.dx <= 0 or self.dt <= 0:
            raise LatticeError("grid spacings must be positive")
        if self.dt > self.dx * (1 + 1e-12):
            raise LatticeError(
                f"CFL violation: dt={self.dt} exceeds dx={self.dx} (lightcone speed 1)"
            )
        if self.topology == LINE and self.guard < 1:
            raise LatticeError("line topology needs a guard band of at least 1 site")

    @property
    def n_slices(self) -> int:
        return self.n_time + 1

    @property
    def circumference(self) -> float:
        if self.topology != CIRCLE:
            raise LatticeError("circumference only makes sense on the circle")
        return self.n_space * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        """Site coordinates: [0, L) on the circle, centered on the line."""
        i = np.arange(self.n_space)
        if self.topology == CIRCLE:
            return i * self.dx
        return (i - (self.n_space - 1) / 2.0) * self.dx

    @cached_property
    def t(self) -> np.ndarray:
        return np.arange(self.n_slices) * self.dt

    @cached_property
    def guard_band(self) -> np.ndarray:
        """Read-only mask of the line's guard sites; all False on the circle."""
        band = np.zeros(self.n_space, dtype=bool)
        if self.topology == LINE:
            band[: self.guard] = True
            band[self.n_space - self.guard:] = True
        band.flags.writeable = False
        return band

    def descriptor(self) -> dict:
        return {
            "topology": self.topology,
            "n_space": self.n_space,
            "dx": self.dx,
            "dt": self.dt,
            "n_time": self.n_time,
            "guard": self.guard,
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "LatticeSpacetime":
        return cls(
            topology=desc["topology"],
            n_space=int(desc["n_space"]),
            dx=float(desc["dx"]),
            dt=float(desc["dt"]),
            n_time=int(desc["n_time"]),
            guard=int(desc.get("guard", 2)),
        )


# -- spatial and temporal stencils (Weil-coefficientwise) --------------------


def _shift_space(coeffs: np.ndarray, k: int, topology: str) -> np.ndarray:
    """coeffs shifted k sites along the space axis; circular or zero-padded."""
    if topology == CIRCLE:
        return np.roll(coeffs, -k, axis=_SPACE_AXIS)
    out = np.zeros_like(coeffs)
    src = [slice(None)] * coeffs.ndim
    dst = [slice(None)] * coeffs.ndim
    n = coeffs.shape[_SPACE_AXIS]
    if k >= 0:
        src[_SPACE_AXIS] = slice(k, n)
        dst[_SPACE_AXIS] = slice(0, n - k)
    else:
        src[_SPACE_AXIS] = slice(0, n + k)
        dst[_SPACE_AXIS] = slice(-k, n)
    out[tuple(dst)] = coeffs[tuple(src)]
    return out


def d_dx(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered spatial derivative; one-sided second order at line edges."""
    c = values.coeffs
    out = (_shift_space(c, 1, lat.topology) - _shift_space(c, -1, lat.topology)) / (2 * lat.dx)
    if lat.topology == LINE:
        n = c.shape[_SPACE_AXIS]
        sl = lambda i: tuple([Ellipsis, i, slice(None)])
        out[sl(0)] = (-3 * c[sl(0)] + 4 * c[sl(1)] - c[sl(2)]) / (2 * lat.dx)
        out[sl(n - 1)] = (3 * c[sl(n - 1)] - 4 * c[sl(n - 2)] + c[sl(n - 3)]) / (2 * lat.dx)
    return WeilValue(values.algebra, out)


def d2_dx2(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered second spatial derivative; one-sided second order at line edges."""
    c = values.coeffs
    out = (
        _shift_space(c, 1, lat.topology) - 2 * c + _shift_space(c, -1, lat.topology)
    ) / lat.dx**2
    if lat.topology == LINE:
        n = c.shape[_SPACE_AXIS]
        sl = lambda i: tuple([Ellipsis, i, slice(None)])
        out[sl(0)] = (2 * c[sl(0)] - 5 * c[sl(1)] + 4 * c[sl(2)] - c[sl(3)]) / lat.dx**2
        out[sl(n - 1)] = (
            2 * c[sl(n - 1)] - 5 * c[sl(n - 2)] + 4 * c[sl(n - 3)] - c[sl(n - 4)]
        ) / lat.dx**2
    return WeilValue(values.algebra, out)


def d_dt(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Time derivative of a full history: centered inside, one-sided at the ends.

    The end stencils are third-order accurate so that differencing the
    result once more (as the divergence does) stays second order on the
    slices next to the time boundary.
    """
    c = values.coeffs
    if c.shape[_TIME_AXIS] != lat.n_slices:
        raise LatticeError("time axis does not match the lattice")
    out = np.empty_like(c)
    out[1:-1] = (c[2:] - c[:-2]) / (2 * lat.dt)
    out[0] = (-11 * c[0] + 18 * c[1] - 9 * c[2] + 2 * c[3]) / (6 * lat.dt)
    out[-1] = (11 * c[-1] - 18 * c[-2] + 9 * c[-3] - 2 * c[-4]) / (6 * lat.dt)
    return WeilValue(values.algebra, out)


def d2_dt2_interior(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered second time derivative on the interior slices 1..n_time-1."""
    c = values.coeffs
    if c.shape[_TIME_AXIS] != lat.n_slices:
        raise LatticeError("time axis does not match the lattice")
    return WeilValue(values.algebra, (c[2:] - 2 * c[1:-1] + c[:-2]) / lat.dt**2)


def time_derivative_at(values: WeilValue, j: int, lat: LatticeSpacetime) -> WeilValue:
    """Time derivative of a history at one slice (one-sided at the ends)."""
    c = values.coeffs
    if not 0 <= j <= lat.n_time:
        raise LatticeError(f"slice {j} out of range")
    if j == 0:
        out = (-3 * c[0] + 4 * c[1] - c[2]) / (2 * lat.dt)
    elif j == lat.n_time:
        out = (3 * c[-1] - 4 * c[-2] + c[-3]) / (2 * lat.dt)
    else:
        out = (c[j + 1] - c[j - 1]) / (2 * lat.dt)
    return WeilValue(values.algebra, out)


# -- discrete (m-1)-forms -----------------------------------------------------


@dataclass(frozen=True)
class SliceDensity:
    """Pullback of an (m-1)-form to a Cauchy slice: one value per site."""

    values: WeilValue
    lattice: LatticeSpacetime

    def __post_init__(self) -> None:
        if self.values.coeffs.shape[_SPACE_AXIS] != self.lattice.n_space:
            raise LatticeError("slice density length must equal n_space")


@dataclass(frozen=True)
class Current:
    """An (m-1)-form on the grid: density (dx component) and flux (dt component)."""

    t_component: WeilValue
    x_component: WeilValue
    lattice: LatticeSpacetime

    def __post_init__(self) -> None:
        if self.t_component.coeffs.shape != self.x_component.coeffs.shape:
            raise LatticeError("current components must share a shape")
        if self.t_component.coeffs.shape[_SPACE_AXIS] != self.lattice.n_space:
            raise LatticeError("current components must span the spatial grid")

    def slice_density(self, j: int) -> SliceDensity:
        """Pullback to the constant-time slice j (the dx component)."""
        return SliceDensity(self.t_component[j], self.lattice)


def integrate_slice(density: SliceDensity) -> WeilValue:
    """Riemann sum over the slice; exact for the uniform grid's midpoint rule."""
    return density.values.sum(axis=-1) * density.lattice.dx


def hodge_d(values: WeilValue, lat: LatticeSpacetime) -> Current:
    """The current *d(psi) of a scalar history psi."""
    return Current(d_dt(values, lat), d_dx(values, lat), lat)


def divergence(current: Current, lat: LatticeSpacetime) -> WeilValue:
    """Discrete exterior derivative d(J)/vol on interior slices 1..n_time-1.

    For J = a*dx + b*dt this is d_t(a) - d_x(b); constant currents map to
    zero exactly and divergence(hodge_d(psi)) is the discrete wave operator.
    """
    a = current.t_component.coeffs
    dt_a = (a[2:] - a[:-2]) / (2 * lat.dt)
    dx_b = d_dx(current.x_component, lat).coeffs[1:-1]
    return WeilValue(current.t_component.algebra, dt_a - dx_b)


# -- support windows and causal cones ----------------------------------------


@dataclass(frozen=True)
class SupportWindow:
    """A contiguous block of sites (wrapping allowed on the circle)."""

    lo: int
    width: int
    n_space: int
    topology: str

    def __post_init__(self) -> None:
        if self.width < 0:
            raise LatticeError("window width must be nonnegative")
        w = min(self.width, self.n_space)
        lo = self.lo
        if self.topology == CIRCLE:
            lo = lo % self.n_space if w < self.n_space else 0
        else:
            if w > 0:
                lo = max(lo, 0)
                w = min(w, self.n_space - lo)
        if w == 0:
            lo = 0
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "width", w)

    @classmethod
    def empty(cls, lat: LatticeSpacetime) -> "SupportWindow":
        return cls(0, 0, lat.n_space, lat.topology)

    @classmethod
    def full(cls, lat: LatticeSpacetime) -> "SupportWindow":
        return cls(0, lat.n_space, lat.n_space, lat.topology)

    @classmethod
    def from_mask(cls, mask: np.ndarray, lat: LatticeSpacetime) -> "SupportWindow":
        """Smallest window covering the true sites of a boolean mask."""
        ref = cls(0, 0, lat.n_space, lat.topology)
        return ref._from_mask_like(np.asarray(mask, dtype=bool))

    @property
    def is_empty(self) -> bool:
        return self.width == 0

    @property
    def is_full(self) -> bool:
        return self.width >= self.n_space

    def mask(self) -> np.ndarray:
        out = np.zeros(self.n_space, dtype=bool)
        if self.is_empty:
            return out
        sites = (self.lo + np.arange(self.width))
        if self.topology == CIRCLE:
            sites = sites % self.n_space
        out[sites] = True
        return out

    def contains(self, other: "SupportWindow") -> bool:
        return bool(np.all(self.mask() | ~other.mask()))

    def widen(self, k: int) -> "SupportWindow":
        if self.is_empty or k <= 0:
            return self
        return SupportWindow(self.lo - k, self.width + 2 * k, self.n_space, self.topology)

    def union(self, other: "SupportWindow") -> "SupportWindow":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return self._from_mask_like(self.mask() | other.mask())

    def intersect(self, other: "SupportWindow") -> "SupportWindow":
        return self._from_mask_like(self.mask() & other.mask())

    def _from_mask_like(self, mask: np.ndarray) -> "SupportWindow":
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return SupportWindow(0, 0, self.n_space, self.topology)
        if self.topology == LINE:
            return SupportWindow(int(idx[0]), int(idx[-1] - idx[0] + 1),
                                 self.n_space, self.topology)
        if idx.size == self.n_space:
            return SupportWindow(0, self.n_space, self.n_space, self.topology)
        gaps = np.diff(np.concatenate([idx, [idx[0] + self.n_space]]))
        g = int(np.argmax(gaps))
        lo = int(idx[(g + 1) % idx.size])
        width = self.n_space - int(gaps[g]) + 1
        return SupportWindow(lo, width, self.n_space, self.topology)


def support_window(lat: LatticeSpacetime, *values: WeilValue) -> SupportWindow:
    """Window covering the sites where any value is nonzero, batch axes folded."""
    mask = np.zeros(lat.n_space, dtype=bool)
    for v in values:
        mask |= np.any(np.abs(v.coeffs) > 0, axis=-1).reshape(-1, lat.n_space).any(axis=0)
    return SupportWindow.from_mask(mask, lat)


def causal_cone(window: SupportWindow, steps: int,
                lat: LatticeSpacetime) -> SupportWindow:
    """Widen a window by the lattice lightcone: one site per time step each side.

    One site per step is the reach of the explicit stencil (speed dx/dt >= 1
    in physical units), so support containment checks against it are exact.
    """
    if steps < 0:
        raise LatticeError("steps must be nonnegative")
    return window.widen(int(steps))


def window_is_interior(window: SupportWindow | None, lat: LatticeSpacetime) -> bool:
    """True when the window stays off the line's guard band (vacuously on the circle).

    None stands for unbounded support, which reaches the band on the line.
    """
    if lat.topology == CIRCLE:
        return True
    return window is not None and not (window.mask() & lat.guard_band).any()


# -- binary snapshots ---------------------------------------------------------

_MAGIC = "weilfield-grid-v1"


def save_grid(fh: BinaryIO, values: WeilValue, lat: LatticeSpacetime) -> None:
    """Write a grid array: one JSON header line, then little-endian float64 bytes.

    Layout is row major with time outermost, space inner, Weil coefficient
    innermost.
    """
    header = {
        "format": _MAGIC,
        "dims": list(values.coeffs.shape),
        "algebra": values.algebra.descriptor(),
        "lattice": lat.descriptor(),
    }
    fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
    fh.write(np.ascontiguousarray(values.coeffs, dtype="<f8").tobytes())


def load_grid(fh: BinaryIO) -> tuple[WeilValue, LatticeSpacetime]:
    """Read back a grid array written by save_grid."""
    header = json.loads(fh.readline().decode("utf-8"))
    if header.get("format") != _MAGIC:
        raise LatticeError("not a weilfield grid file")
    dims = tuple(int(d) for d in header["dims"])
    algebra = WeilAlgebra.from_descriptor(header["algebra"])
    lat = LatticeSpacetime.from_descriptor(header["lattice"])
    count = int(np.prod(dims))
    data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    return WeilValue(algebra, data.reshape(dims).copy()), lat
