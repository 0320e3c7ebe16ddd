"""Central numeric tolerances and enumeration caps.

All modules read their defaults from one frozen record so that every
validation error can state which bound was violated, and so CLI overrides
land in a single place.  Every size is compared with its cap in one place,
charge, which also words every overflow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimOverflow, EnumerationOverflow


@dataclass(frozen=True)
class Tolerances:
    # operator validation
    hermitian: float = 1e-12          # max |m - m†| entry
    psd_floor: float = 1e-10          # eigenvalues below -psd_floor are errors
    trace_one: float = 1e-10          # |tr(m) - 1| bound for density operators
    prob_sum: float = 1e-12           # |sum(p) - 1| bound for distributions
    # typicality: float boundary guard when testing |freq - p| <= window
    typicality_boundary: float = 1e-12
    # separation decision bands (squared-norm distances are compared after sqrt)
    separable_above: float = 1e-6     # distance > this => certificate
    not_separable_below: float = 1e-7 # distance <= this => NotSeparable
    # solvers
    quadratic_solver: float = 1e-10   # Frank-Wolfe gap that stops the set distance's Newton solve
    case_tie_band: float = 1e-6       # small/large correlation tie band
    maxmin_bracket: float = 1e-6      # a max-min saddle bracket this wide ends the solve


@dataclass(frozen=True)
class Caps:
    product_dim: int = 4096           # max d**n: product states, projectors, evaluator operators
    enumeration: int = 1 << 20        # max typical-set sequences; verifier count-table cells
    jammer_states: int = 1 << 16      # max |S|**n per codeword in error maxima


DEFAULT_TOL = Tolerances()
DEFAULT_CAPS = Caps()


def charge(caps, field, size, what):
    """Charge the size of what a caller is about to build against caps.<field>.

    A size over the cap raises DimOverflow for product_dim and
    EnumerationOverflow for enumeration and jammer_states, worded
    "{what} {size} exceeds the {field} cap {cap}".  An ndarray of sizes, one
    per row of the typicality verifier, raises nothing: it returns the mask of
    the rows over the cap and, per row, that wording or None.
    """
    cap = getattr(caps, field)
    over = size > cap
    if isinstance(size, np.ndarray):
        return over, [f"{what} {s} exceeds the {field} cap {cap}" if o else None
                      for s, o in zip(size.tolist(), over.tolist())]
    if over:
        error = DimOverflow if field == "product_dim" else EnumerationOverflow
        raise error(f"{what} {size} exceeds the {field} cap {cap}")
