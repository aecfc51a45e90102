"""The CLI's quantities at one point from the library functions, flagged as the CLI flags them.

A reference for the CLI, which forms every quantity as a column over the
record rows of a block of cells (``thermo._record``): here each is one call
of the library function that reads the same rows of the point's own record,
and an exception is a NaN value and a flag, ``ToleranceNotReached`` as
``name:tolerance`` and the errors a CLI cell can carry (``OverflowError``,
``NegativeRadicand``, ``DegenerateCoupling``) as ``name:error``.  Any other
exception refuses the point, as the CLI refuses it.
"""

import math

from staggered_xx import correlations, entanglement, ground, thermo
from staggered_xx.quadrature import ToleranceNotReached

_PARITIES = ("odd", "even")

LIBRARY = {
    "u": thermo.internal_energy,
    "m": thermo.magnetization,
    "m_s": thermo.staggered_magnetization,
    "e_mw": lambda p, t: ground.meyer_wallach(p),  # the record's m_s
    **{f"g1_{s}": lambda p, t, s=s: correlations.g_site(p, t, s, 1) for s in _PARITIES},
    **{f"zz1_{s}": lambda p, t, s=s: correlations.zz_correlator(p, t, s, 1) for s in _PARITIES},
    **{f"c1_{s}": lambda p, t, s=s: entanglement.c1(p, t).at(s) for s in _PARITIES},
    **{f"c2_{s}": lambda p, t, s=s: entanglement.c2(p, t).at(s) for s in _PARITIES},
    "witness_lhs": lambda p, t: entanglement.witness(p, t).lhs,
    "energy_t0": thermo.internal_energy,  # the record's u at T = 0
    "m_t0": thermo.magnetization,
}

_CELL_ERRORS = (ArithmeticError, entanglement.NegativeRadicand, entanglement.DegenerateCoupling)


def library_point(p, t, quantities) -> tuple[dict, list]:
    """(record, flags) of the named quantities at (p, t), as ``cli.run_point`` returns them."""
    record, flags = {}, []
    for name in quantities:
        try:
            record[name] = LIBRARY[name](p, t)
        except ToleranceNotReached:
            record[name] = math.nan
            flags.append(f"{name}:tolerance")
        except _CELL_ERRORS:
            record[name] = math.nan
            flags.append(f"{name}:error")
    return record, flags
