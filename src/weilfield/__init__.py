"""weilfield: lattice field theory in nilpotent arithmetic.

Fields on 1+1D lattice spacetimes take values in Weil algebras (truncated
nilpotent polynomial rings), which makes tangent vectors, linearizations,
and directional derivatives exactly computable: solving the field equation
over dual numbers yields the linearized solution in the eps component.  On
top of that substrate the package builds the conserved presymplectic
current of a semilinear wave equation, the presymplectic form on Cauchy
data, Hamiltonian vector fields, and the Poisson algebra of admissible
observables, together with a verification harness.
"""

__version__ = "0.1.0"

from .weil import (
    AlgebraMismatchError,
    SmoothMap,
    WeilAlgebra,
    WeilValue,
    apply_smooth,
)

__all__ = [
    "AlgebraMismatchError",
    "SmoothMap",
    "WeilAlgebra",
    "WeilValue",
    "apply_smooth",
    "__version__",
]
