"""The CLI's quantities at one point from the library functions, flagged as the CLI flags them.

An independent reference for the CLI, which forms every quantity as a
column over the record columns of a block of cells: here each is the
library function called on the point's one record (``thermo._point_record``),
and an exception is a NaN value and a flag, ``ToleranceNotReached`` as
``name:tolerance`` and ``ArithmeticError``/``ValueError`` as ``name:error``.
"""

import math

from staggered_xx import correlations, entanglement, ground, thermo
from staggered_xx.quadrature import ToleranceNotReached

_PARITIES = ("odd", "even")

LIBRARY = {
    "u": lambda p, t, rec: thermo.internal_energy(p, t, rec),
    "m": lambda p, t, rec: thermo.magnetization(p, t, rec),
    "m_s": lambda p, t, rec: thermo.staggered_magnetization(p, t, rec),
    "e_mw": lambda p, t, rec: ground.meyer_wallach(p, rec),
    **{f"g1_{s}": lambda p, t, rec, s=s: correlations.g_site(p, t, s, 1, rec) for s in _PARITIES},
    **{f"zz1_{s}": lambda p, t, rec, s=s: correlations.zz_correlator(p, t, s, 1, rec)
       for s in _PARITIES},
    **{f"c1_{s}": lambda p, t, rec, s=s: entanglement.c1(p, t, rec).at(s) for s in _PARITIES},
    **{f"c2_{s}": lambda p, t, rec, s=s: entanglement.c2(p, t, rec).at(s) for s in _PARITIES},
    "witness_lhs": lambda p, t, rec: entanglement.witness(p, t, rec).lhs,
    "energy_t0": lambda p, t, rec: ground.energy(p, rec),
    "m_t0": lambda p, t, rec: ground.magnetization_t0(p, rec),
}


def library_point(p, t, quantities) -> tuple[dict, list]:
    """(record, flags) of the named quantities at (p, t), as ``cli.run_point`` returns them."""
    rec = thermo._point_record(p, t, None)
    record, flags = {}, []
    for name in quantities:
        try:
            record[name] = LIBRARY[name](p, t, rec)
        except ToleranceNotReached:
            record[name] = math.nan
            flags.append(f"{name}:tolerance")
        except (ArithmeticError, ValueError):
            record[name] = math.nan
            flags.append(f"{name}:error")
    return record, flags
