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

Spatial stencils are centered second order and read the line's field as
zero beyond its two ends, so the Laplacian is symmetric on both topologies;
time stencils are one-sided on the end slices.  All grid operations act
coefficientwise on Weil values, so they commute exactly with coefficient
extraction.  Stencils write into one output array through slices of their
input, with no shifted copies; d_dx and d2_dx2 take every row of a batch in
one flat pass over a contiguous input.
"""

from __future__ import annotations

import json
import math
import sys
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


def _shown(value) -> str:
    """repr(value) for a one-line error message, at most 100 characters long.

    reprlib elides deep nesting, long containers and long strings, and a
    repr still longer is cut, so a huge value cannot flood the line.
    """
    import reprlib  # only an error pays for the import
    text = reprlib.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


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
            raise LatticeError(f"unknown topology {_shown(self.topology)}")
        if self.n_space < 8:
            raise LatticeError("need at least 8 spatial sites")
        if self.n_time < 2:
            raise LatticeError("need at least 2 time steps")
        if 8 * self.n_slices * self.n_space > np.iinfo(np.intp).max:
            raise LatticeError(f"a grid of {self.n_slices} x {self.n_space} float64 sites "
                               f"has more bytes than numpy can size")
        if not (0 < self.dx < np.inf and 0 < self.dt < np.inf):
            raise LatticeError(f"grid spacings must be finite and positive, "
                               f"got dx={self.dx}, dt={self.dt}")
        # the stencils divide by dx^2 and dt^2, which must neither overflow nor
        # underflow to 0 or to a subnormal of a few significant bits, and the
        # oracle scales by (dx dt)^2; a float product overflows to inf, never raising
        dx, dt, tiny, huge = float(self.dx), float(self.dt), sys.float_info.min, sys.float_info.max
        if not (tiny <= dx * dx <= huge and tiny <= dt * dt <= huge
                and (dx * dt) * (dx * dt) <= huge):
            raise LatticeError(f"grid spacings must have normal squares and a finite "
                               f"(dx*dt)^2, got dx={self.dx}, dt={self.dt}")
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
        """The lattice a descriptor names, or one LatticeError line naming a malformed entry.

        A size or a spacing is read only from a number of that value: never
        from a string or a boolean, nor a size from a fraction.
        """
        if not isinstance(desc, dict):
            raise LatticeError(f"a lattice descriptor must be an object, got {_shown(desc)}")
        read = {"topology": desc.get("topology")}
        for key, kind in (("n_space", int), ("dx", float), ("dt", float), ("n_time", int),
                          ("guard", int)):
            value = desc.get(key, 2 if key == "guard" else None)
            try:
                read[key] = kind(value)
            except (TypeError, ValueError, OverflowError):
                read[key] = None
            if read[key] is None or read[key] != value or isinstance(value, (bool, str)):
                what = "an integer" if kind is int else "a number"
                raise LatticeError(f"lattice {key} must be {what}, got {_shown(value)}")
        return cls(**read)


# -- spatial and temporal stencils (Weil-coefficientwise) --------------------


def d_dx(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered spatial derivative; on the line the field reads zero beyond the ends.

    So the line's edge rows are a derivative only where the field vanishes at
    the ends: the kink 4 arctan(e^x) on 256 sites of dx 0.1 reads -31.4 at n-1.
    """
    c = np.ascontiguousarray(values.coeffs)
    return WeilValue(values.algebra, _d_dx_into(c, np.empty(c.shape), lat))


def _d_dx_into(c: np.ndarray, out: np.ndarray, lat: LatticeSpacetime) -> np.ndarray:
    """d_dx of the contiguous coefficients c, written into the contiguous out (not c)."""
    # the centered difference of every site of every row in one flat pass
    # (neighbouring sites lie step floats apart); each row's end sites are set below
    flat, step = c.reshape(-1), c.shape[-1]
    np.subtract(flat[2 * step:], flat[:-2 * step], out=out.reshape(-1)[step:-step])
    c, o = c.swapaxes(0, _SPACE_AXIS), out.swapaxes(0, _SPACE_AXIS)  # sites first
    if lat.topology == CIRCLE:  # both edges at once: sites (1, 0) - sites (-1, -2)
        np.subtract(c[1::-1], c[:-3:-1], out=o[::len(o) - 1])
    else:  # zero beyond the ends: site 1 - 0 and 0 - site n-2
        o[0], o[-1] = c[1], 0.0 - c[-2]
    out /= 2 * lat.dx
    return out


def d2_dx2(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Centered second spatial derivative; on the line the field reads zero beyond the ends.

    So, as with d_dx, the line's edge rows are a derivative only where the field vanishes.
    """
    c = np.ascontiguousarray(values.coeffs)
    return WeilValue(values.algebra, _d2_dx2_bound(c, np.empty(c.shape), lat)())


def _d2_dx2_bound(c: np.ndarray, out: np.ndarray, lat: LatticeSpacetime):
    """A call writing d2_dx2 of contiguous c into contiguous out (not c); views bound once."""
    # the stencil of every site of every row in one flat pass, as in d_dx; each
    # row's end sites take the next or last row's sites and are set again below
    flat, step, scale = c.ravel(), c.shape[-1], lat.dx**2
    inner, right, left = out.ravel()[step:-step], flat[2 * step:], flat[:-2 * step]
    cs, o = c.swapaxes(0, _SPACE_AXIS), out.swapaxes(0, _SPACE_AXIS)  # sites first
    n, wraps = len(cs), lat.topology == CIRCLE
    # both edges at once, right neighbours then left: on the circle (1, 0) and
    # (-1, -2), on the line only the inner (1, n-2), as it reads zero beyond the ends
    edges, ends = o[::n - 1], cs[::n - 1]
    near = (cs[1::-1], cs[:-3:-1]) if wraps else (cs[1:n - 1:n - 3],)

    def apply() -> np.ndarray:
        np.multiply(c, -2.0, out=out)  # -2c[i] + c[i+1] rounds as c[i+1] - 2c[i]
        np.add(inner, right, out=inner)
        np.add(inner, left, out=inner)
        if c.ndim > 2:  # one row's end sites lie outside the flat pass and hold -2c
            np.multiply(ends, -2.0, edges)
        np.add(edges, near[0], out=edges)
        if wraps:
            np.add(edges, near[1], out=edges)
        return np.divide(out, scale, out=out)

    return apply


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


def integrate_slice(values: WeilValue, lat: LatticeSpacetime) -> WeilValue:
    """Riemann sum over a slice of site values, such as a current's t_component[j]."""
    if values.coeffs.shape[_SPACE_AXIS] != lat.n_space:
        raise LatticeError("slice density length must equal n_space")
    return WeilValue(values.algebra, values.coeffs.sum(axis=-2) * lat.dx)


def hodge_d(values: WeilValue, lat: LatticeSpacetime) -> Current:
    """The current *d(psi) of a scalar history psi.

    Its x_component is d_dx(psi), whose line edge rows hold only where psi vanishes.
    """
    return Current(d_dt(values, lat), d_dx(values, lat), lat)


def divergence(current: Current) -> WeilValue:
    """Discrete exterior derivative d(J)/vol on interior slices 1..n_time-1.

    For J = a*dx + b*dt this is d_t(a) - d_x(b), with the spacings and the
    topology of the current's own lattice; constant currents map to zero
    exactly and divergence(hodge_d(psi)) is the discrete wave operator.
    """
    a = current.t_component.coeffs
    b = np.ascontiguousarray(current.x_component.coeffs[1:-1])
    out = _divergence_into(a, b, np.empty(b.shape), np.empty(b.shape), current.lattice)
    return WeilValue(current.t_component.algebra, out)


def _divergence_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                     lat: LatticeSpacetime) -> np.ndarray:
    """divergence into out from a on slices 0..T and contiguous b on 1..T-1, d_x b in scratch."""
    np.subtract(a[2:], a[:-2], out=out)
    out /= 2 * lat.dt
    out -= _d_dx_into(b, scratch, lat)
    return out


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


def require_compact_factor(lat: LatticeSpacetime, *compact: bool) -> None:
    """On the line omega pairs two factors only when one of them is spacelike compact."""
    if lat.topology == LINE and not any(compact):
        raise SupportError("line topology: at least one factor must be spacelike compact")


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
    """Read back a grid array written by save_grid; anything else is one LatticeError line.

    The dims must be (n_slices, ..., n_space, algebra.dim) of the header's
    lattice and algebra, and the body exactly that many floats.
    """
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep a nest
        header = None
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise LatticeError("not a weilfield grid file")
    try:
        algebra = WeilAlgebra.from_descriptor(header.get("algebra"))
    except (LookupError, TypeError, ValueError):
        raise LatticeError(f"grid algebra must be an algebra descriptor, "
                           f"got {_shown(header.get('algebra'))}") from None
    lat = LatticeSpacetime.from_descriptor(header.get("lattice"))
    dims = header.get("dims")
    if (not isinstance(dims, list) or len(dims) < 3
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims)
            or (dims[0], dims[-2], dims[-1]) != (lat.n_slices, lat.n_space, algebra.dim)):
        raise LatticeError(f"grid dims {_shown(dims)} do not fit its lattice and algebra")
    if len(body := fh.read()) != 8 * math.prod(dims):
        raise LatticeError(f"grid body holds {len(body)} bytes, not 8 per float of its dims")
    return WeilValue(algebra, np.frombuffer(body, dtype="<f8").reshape(dims).copy()), lat
