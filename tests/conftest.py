import numpy as np
import pytest

from weilfield import dynamics as dyn
from weilfield import lattice as lt
from weilfield.weil import WeilAlgebra, WeilValue


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def real_algebra():
    return WeilAlgebra.real()


@pytest.fixture
def dual():
    return WeilAlgebra.dual()


@pytest.fixture
def double_dual():
    return WeilAlgebra.dual().tensor(WeilAlgebra.dual())


@pytest.fixture
def jet3():
    return WeilAlgebra.jet(3)


@pytest.fixture
def circle():
    n = 64
    extent = 2 * np.pi
    return lt.LatticeSpacetime("circle", n, extent / n, 0.5 * extent / n, 64)


@pytest.fixture
def line():
    return lt.LatticeSpacetime("line", 96, 0.1, 0.05, 48, guard=2)


@pytest.fixture
def tangent_setup(rng):
    """make(topology, over, count=2) -> (lat, base, directions): sine-Gordon data, tangents.

    Random smooth profiles (three Fourier modes) over R or the dual numbers,
    eps parts nonzero; on the line they sit on sites 36..59 of 96, so 24
    steps keep every cone interior.
    """

    def make(topology, over, count=2):
        if topology == "circle":
            lat = lt.LatticeSpacetime("circle", 48, 2 * np.pi / 48, np.pi / 48, 40)
            window = np.ones(lat.n_space)
        else:
            lat = lt.LatticeSpacetime("line", 96, 0.1, 0.05, 24, guard=2)
            window = np.zeros(lat.n_space)
            window[36:60] = np.hanning(24)
        algebra = WeilAlgebra.real() if over == "real" else WeilAlgebra.dual()

        modes = np.exp(2j * np.pi * np.outer(np.arange(lat.n_space) / lat.n_space,
                                             np.arange(1, 4)))

        def value(scale):
            amps = rng.standard_normal((2, 3, algebra.dim))
            coeffs = (modes.real @ amps[0] + modes.imag @ amps[1]) * window[:, None]
            return WeilValue(algebra, scale * coeffs)

        def data(scale):
            return dyn.CauchyData(value(scale), value(scale))

        return lat, data(0.3), [data(0.1) for _ in range(count)]

    return make


# slices per block a march is cut into by the block tests; None keeps the budget
BLOCK_SIZES = [1, 3, None]
_DEFAULT_BLOCK_BYTES = dyn._BLOCK_BYTES


def _block_fit(monkeypatch, size):
    def fit(slice_bytes, n_slices):
        budget = _DEFAULT_BLOCK_BYTES if size is None else size * slice_bytes
        monkeypatch.setattr(dyn, "_BLOCK_BYTES", budget)
        per = max(1, budget // slice_bytes)
        first = min(per + 2, n_slices)
        rest = n_slices - first
        return [first] + [per] * (rest // per) + [rest % per] * (rest % per > 0)

    return fit


@pytest.fixture(params=BLOCK_SIZES, ids=["block1", "block3", "default"])
def block_lengths(request, monkeypatch):
    """fit(slice_bytes, n_slices) -> the lengths of the blocks a march will yield.

    The march's byte budget is patched to hold 1 or 3 slices of slice_bytes,
    or left at its default.  The first block also holds slices 0 and 1.
    """
    return _block_fit(monkeypatch, request.param)


@pytest.fixture
def each_block_length(monkeypatch):
    """The block_lengths fit for every one of BLOCK_SIZES, in turn, in one test."""
    return [_block_fit(monkeypatch, size) for size in BLOCK_SIZES]
