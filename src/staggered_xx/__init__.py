"""Exact solution of the XX spin chain with staggered couplings and fields.

The chain H = -sum_l [(J_l/2)(sx sx + sy sy) + B_l sz] with two-site
periodic modulation J_l = J + (-1)^l j, B_l = B + (-1)^l b maps to free
fermions with two bands B +- theta(q); every bulk observable here is a
single q-integral over [0, pi] evaluated by tanh-sinh quadrature on the
pieces between the band crossings, and at zero temperature a closed form
or a smooth integral over the filled interval.  Finite periodic rings
(dense exact diagonalization and discrete momentum sums) provide
independent cross-checks in :mod:`.oracle`.
"""

from . import correlations, entanglement, ground, model, oracle, quadrature, thermo

# each module's __all__ lists its public names; the package re-exports exactly those
from .model import *
from .quadrature import *
from .thermo import *
from .correlations import *
from .ground import *
from .entanglement import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *quadrature.__all__,
    *thermo.__all__,
    *correlations.__all__,
    *ground.__all__,
    *entanglement.__all__,
    *oracle.__all__,
    "__version__",
]
