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
