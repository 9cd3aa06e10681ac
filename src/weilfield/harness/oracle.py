"""Mode-sum oracle for free-field brackets on the circle.

For the linear interaction rho(x) = mass^2 * x, the bracket of two
spacetime-smeared field observables has a closed form through the
commutator function

    G(t, dx) = sum_k sin(omega_k t) cos(k dx) / (omega_k L),
    omega_k = sqrt(k^2 + mass^2),  k in (2 pi / L) * {-n/2, ..., n/2},

which propagates initial velocities (G(0,.) = 0 and d_t G(0,.) is the
discrete delta comb, matching {phi, pi} = +delta).  With the pinned bracket
orientation the smeared pairing is

    {F_f, F_g} = quadruple sum of f(t,x) G(t'-t, x-x') g(t',x'),

evaluated here by factorizing the mode sum.  On the sites x_i = i dx every
sum over i of h_i cos(k x_i) or h_i sin(k x_i) is a real DFT, so one real FFT
per slice gives all of them: the cost is O(n_time n log n) time and about
two grids of memory, not modes x grid.  omega depends on k only through |k|, so the
time moments run over the n//2 + 1 values of |k| once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .. import lattice as lt


class OracleError(ValueError):
    """The oracle only covers the linear interaction on the circle."""


class Moments(NamedTuple):
    """A smearing's time moments of its real-DFT parts (a: cosine, b: sine), per |k|."""

    a_sin: np.ndarray
    a_cos: np.ndarray
    b_sin: np.ndarray
    b_cos: np.ndarray


@dataclass(frozen=True)
class PauliJordanOracle:
    lattice: lt.LatticeSpacetime
    mass: float = 1.0

    def __post_init__(self) -> None:
        if self.lattice.topology != lt.CIRCLE:
            raise OracleError("mode-sum oracle requires circle topology")
        if self.mass < 0:
            raise OracleError("mass must be nonnegative")

    @cached_property
    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """omega over |j| = 0..n//2, and how many of the modes j = +-|j| each stands for.

        The count is 1 for j = 0 and 2 otherwise; for even n both j = +-n/2
        are modes, so the last |j| counts twice as well.
        """
        k = 2 * np.pi * np.arange(self.lattice.n_space // 2 + 1) / self.lattice.circumference
        omega = np.sqrt(k**2 + self.mass**2)
        if omega[0] == 0:
            raise OracleError("massless zero mode: give the field a mass")
        pairs = np.full(omega.size, 2.0)
        pairs[0] = 1.0
        return omega, pairs

    def _cos_sum(self, c: np.ndarray) -> np.ndarray:
        """sum over the modes j of c_|j| cos(k_j x_i) at the sites, by one inverse real FFT."""
        n = self.lattice.n_space
        spectrum = np.array(c, dtype=np.float64)
        if n % 2 == 0:
            spectrum[-1] *= 2.0  # irfft counts the bin n/2 once; the modes j = +-n/2 twice
        return np.fft.irfft(spectrum, n, norm="forward")

    def commutator(self, t: float) -> np.ndarray:
        """G(t, i*dx) over the lattice separations i = 0..n_space-1."""
        omega, _ = self._folded
        return self._cos_sum(np.sin(omega * t) / (omega * self.lattice.circumference))

    def d_dt_commutator(self, t: float) -> np.ndarray:
        omega, _ = self._folded
        return self._cos_sum(np.cos(omega * t) / self.lattice.circumference)

    def delta_comb(self) -> np.ndarray:
        """Closed form of d_t G at t=0 (Dirichlet kernel at the lattice points).

        Even n: (n * delta_i0 + (-1)^i) / L; odd n: n * delta_i0 / L.  The
        dominant n/L = 1/dx spike is the discrete delta of {phi, pi} = delta.
        """
        n = self.lattice.n_space
        L = self.lattice.circumference
        if n % 2 == 0:
            out = np.cos(np.pi * np.arange(n)) / L
            out[0] = (n + 1) / L
        else:
            out = np.zeros(n)
            out[0] = n / L
        return out

    def moments(self, *grids: np.ndarray) -> list[Moments]:
        """The mode moments of each smearing grid: what smeared_bracket pairs.

        Per slice, sum_i h_i cos(k x_i) is the real part of the real DFT and
        sum_i h_i sin(k x_i) minus its imaginary part; the sine sums enter
        only in products of two, so their sign cancels.  The sin/cos time
        tables are built once per call and not kept.
        """
        lat = self.lattice
        grids = [np.asarray(h, dtype=np.float64) for h in grids]
        if any(h.shape != (lat.n_slices, lat.n_space) for h in grids):
            raise OracleError("smearings must cover the full grid")
        wt = np.outer(self._folded[0], lat.t)
        sin_wt, cos_wt = np.sin(wt), np.cos(wt)
        out = []
        for h in grids:
            spectrum = np.fft.rfft(h, axis=1)          # (T+1, n//2 + 1)
            a, b = spectrum.real, spectrum.imag
            out.append(Moments(
                np.einsum("kt,tk->k", sin_wt, a),
                np.einsum("kt,tk->k", cos_wt, a),
                np.einsum("kt,tk->k", sin_wt, b),
                np.einsum("kt,tk->k", cos_wt, b),
            ))
        return out

    def smeared_bracket(self, fm: Moments, gm: Moments) -> float:
        """The bracket of int f*Phi*vol and int g*Phi*vol by factorized mode sums.

        fm and gm are the moments of the smearing grids f and g, so a grid
        in several brackets is transformed once.
        """
        lat = self.lattice
        omega, pairs = self._folded
        # sin(w(t'-t)) cos(k(x-x')) expanded over the mode moments
        per_mode = (
            fm.a_cos * gm.a_sin - fm.a_sin * gm.a_cos
            + fm.b_cos * gm.b_sin - fm.b_sin * gm.b_cos
        )
        return float(np.sum(pairs * per_mode / (omega * lat.circumference))
                     * (lat.dx * lat.dt) ** 2)
