"""Central numeric tolerances and enumeration caps.

All modules read their defaults from one frozen record so that every
validation error can state which bound was violated, and so CLI overrides
land in a single place.
"""

from dataclasses import dataclass


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
