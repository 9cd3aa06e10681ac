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
exactly with coefficient extraction.  Stencils write into one output array
through slices of their input, with no shifted copies; d_dx and d2_dx2 take
every row of a batch in one flat pass over a contiguous input.
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
        if not (0 < self.dx < np.inf and 0 < self.dt < np.inf):
            raise LatticeError(f"grid spacings must be finite and positive, "
                               f"got dx={self.dx}, dt={self.dt}")
        try:  # the leapfrog's Taylor start takes dt^3; a float power overflows by raising
            float(self.dx) ** 3, float(self.dt) ** 3
            # and the stencils divide by dx^2 and dt^2, which may underflow to 0
            in_range = float(self.dx) ** 2 > 0 and float(self.dt) ** 2 > 0
        except OverflowError:
            in_range = False
        if not in_range:
            raise LatticeError(f"grid spacings must have a finite cube and a nonzero square, "
                               f"got dx={self.dx}, dt={self.dt}")
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


def d_dx(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered spatial derivative; one-sided second order at line edges."""
    c = np.ascontiguousarray(values.coeffs)
    out = np.empty(c.shape)
    # the centered difference of every site of every row in one flat pass
    # (neighbouring sites lie step floats apart); each row's end sites are set below
    flat, step = c.reshape(-1), c.shape[-1]
    np.subtract(flat[2 * step:], flat[:-2 * step], out=out.reshape(-1)[step:-step])
    c, o = c.swapaxes(0, _SPACE_AXIS), out.swapaxes(0, _SPACE_AXIS)  # sites first
    if lat.topology == CIRCLE:  # both edges at once: sites (1, 0) - sites (-1, -2)
        np.subtract(c[1::-1], c[:-3:-1], out=o[::len(o) - 1])
    else:
        o[0] = -3 * c[0] + 4 * c[1] - c[2]
        o[-1] = 3 * c[-1] - 4 * c[-2] + c[-3]
    out /= 2 * lat.dx
    return WeilValue(values.algebra, out)


def d2_dx2(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered second spatial derivative; one-sided second order at line edges."""
    c = np.ascontiguousarray(values.coeffs)
    return WeilValue(values.algebra, _d2_dx2_into(c, np.empty(c.shape), lat))


def _d2_dx2_into(c: np.ndarray, out: np.ndarray, lat: LatticeSpacetime) -> np.ndarray:
    """d2_dx2 of the contiguous coefficients c, written into the contiguous out (not c)."""
    np.multiply(c, -2.0, out=out)  # -2c[i] + c[i+1] rounds as c[i+1] - 2c[i]
    # the stencil of every site of every row in one flat pass, as in d_dx; each
    # row's end sites take the next or last row's sites and are set again below
    flat, step = c.ravel(), c.shape[-1]
    inner = out.ravel()[step:-step]
    inner += flat[2 * step:]
    inner += flat[:-2 * step]
    c, o = c.swapaxes(0, _SPACE_AXIS), out.swapaxes(0, _SPACE_AXIS)  # sites first
    n = len(c)
    if lat.topology == CIRCLE:  # both edges at once: right neighbours (1, 0), left (-1, -2)
        edges = o[::n - 1]
        if c.ndim > 2:  # one row's end sites lie outside the flat pass and hold -2c
            np.multiply(c[::n - 1], -2.0, edges)
        edges += c[1::-1]
        edges += c[:-3:-1]
    else:  # both edges at once, from sites (0, n-1), (1, n-2), (2, n-3) and (3, n-4)
        o[::n - 1] = (2 * c[::n - 1] - 5 * c[1:n - 1:n - 3] + 4 * c[2:n - 2:n - 5]
                      - c[3:n - 3:n - 7])
    out /= lat.dx**2
    return out


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
    inner = np.subtract(c[2:], c[:-2], out=out[1:-1])
    inner /= 2 * lat.dt
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
    values = density.values
    return WeilValue(values.algebra, values.coeffs.sum(axis=-2) * density.lattice.dx)


def hodge_d(values: WeilValue, lat: LatticeSpacetime) -> Current:
    """The current *d(psi) of a scalar history psi."""
    return Current(d_dt(values, lat), d_dx(values, lat), lat)


def divergence(current: Current, lat: LatticeSpacetime) -> WeilValue:
    """Discrete exterior derivative d(J)/vol on interior slices 1..n_time-1.

    For J = a*dx + b*dt this is d_t(a) - d_x(b); constant currents map to
    zero exactly and divergence(hodge_d(psi)) is the discrete wave operator.
    """
    a = current.t_component.coeffs
    out = np.subtract(a[2:], a[:-2])
    out /= 2 * lat.dt
    out -= d_dx(current.x_component[1:-1], lat).coeffs
    return WeilValue(current.t_component.algebra, out)


# -- support masks and causal cones ------------------------------------------


def support_mask(lat: LatticeSpacetime, *values: WeilValue) -> np.ndarray:
    """Mask of the sites where any value is nonzero, batch axes folded."""
    mask = np.zeros(lat.n_space, dtype=bool)
    for v in values:
        mask |= np.any(np.abs(v.coeffs) > 0, axis=-1).reshape(-1, lat.n_space).any(axis=0)
    return mask


def causal_cone(mask: np.ndarray, steps: int, lat: LatticeSpacetime) -> np.ndarray:
    """Grow a support mask by the lattice lightcone: one site per time step each side.

    One site per step is the reach of the explicit stencil (speed dx/dt >= 1
    in physical units), so support containment checks against it are exact.
    The cone clips at the line's ends and wraps on the circle.
    """
    if steps < 0:
        raise LatticeError("steps must be nonnegative")
    padded = np.pad(mask, steps, mode="wrap" if lat.topology == CIRCLE else "constant")
    hits = np.concatenate([[0], np.cumsum(padded)])
    return hits[2 * steps + 1:] > hits[:lat.n_space]


def window_is_interior(mask: np.ndarray | None, lat: LatticeSpacetime) -> bool:
    """True when the mask stays off the line's guard band (vacuously on the circle).

    None stands for unbounded support, which reaches the band on the line.
    """
    if lat.topology == CIRCLE:
        return True
    return mask is not None and not (mask & lat.guard_band).any()


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
