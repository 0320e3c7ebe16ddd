"""Dense Hermitian-operator algebra.

Validation, spectra, entropies, distances, tensor products and partial
traces for small dense operators.  Validated arrays are returned as
read-only copies so they can be shared across threads; every operation
here is a pure function of its inputs.

Logarithms are base 2 throughout.
"""

from math import inf
from numbers import Integral, Real

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    BadSubsystemIndex,
    DimensionMismatch,
    InvalidArgument,
    InvalidJoint,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)


def _as_complex_square(m):
    """m as a complex square matrix or stack (..., d, d) of them, d >= 1, or DimensionMismatch."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or not a.shape[-1] == a.shape[-2] > 0:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def read_only(a):
    """Read-only copy of an array."""
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _refuse(bad, error, message):
    """Raise error(message(index)) at the first True flag of bad, one per entry,
    matrix or row; the index prefixes the text when bad holds more than one."""
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise error((f"at {list(map(int, at))}: " if at else "") + message(at))


def _integer(value, name, low):
    """int(value) if it is an integer >= low (numpy integers too, not bools), else InvalidArgument."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise InvalidArgument(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _positive(value, name):
    """value if it is a finite real number > 0 (not a bool), else InvalidArgument."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0.0 < value < inf):
        raise InvalidArgument(f"{name} must be a finite number > 0, got {value!r}")
    return value


def _adjoint_deviation(a):
    """max |A - A†| entry of each matrix of the stack (..., D, D)."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def require_hermitian(m, tol=DEFAULT_TOL.hermitian):
    """Hermitian part of a matrix or a stack (..., d, d) of them, read-only.

    A non-finite entry raises InvalidArgument, a max |m - m†| entry above
    tol raises NotHermitian; either names the first offender of a stack.
    """
    a = _as_complex_square(m)
    _refuse(~np.isfinite(a), InvalidArgument, lambda at: f"entry {a[at]} is not finite")
    dev = _adjoint_deviation(a)
    _refuse(dev > tol, NotHermitian,
            lambda at: f"max |m - m†| entry is {dev[at]:.3e}, exceeds tolerance {tol:.1e}")
    return read_only((a + a.conj().swapaxes(-1, -2)) / 2.0)


def validate_density(m, tol=DEFAULT_TOL):
    """Validate a density operator, or a stack (..., d, d) of them in one pass.

    Each must be finite, Hermitian, PSD and of unit trace; the first
    offender of a stack is named.  Eigenvalues in [-psd_floor, 0) are
    tolerated (the entropy routines clamp them); anything more negative
    raises NotPositive.  Returns the Hermitian part, read-only.
    """
    a = require_hermitian(m, tol.hermitian)
    low = eigvalsh_stack(a)[..., 0]
    _refuse(low < -tol.psd_floor, NotPositive, lambda at: (
        f"minimum eigenvalue {low[at]:.3e} is below the floor -{tol.psd_floor:.1e}"))
    tr = np.real(np.trace(a, axis1=-2, axis2=-1))
    _refuse(np.abs(tr - 1.0) > tol.trace_one, TraceNotOne, lambda at: (
        f"trace is {float(tr[at])!r}, |trace - 1| = {abs(tr[at] - 1.0):.3e} "
        f"exceeds {tol.trace_one:.1e}"))
    return a


def _distribution_rows(a, tol, nouns=("weight", "weights"), axis=-1):
    """a clipped at 0, read-only, once each row along axis is a distribution.

    A non-finite entry raises InvalidArgument; an entry below -tol.prob_sum
    or a row sum off 1 by more raises InvalidJoint, naming the first row of
    a stack.
    """
    _refuse(~np.isfinite(a), InvalidArgument, lambda at: f"entry {a[at]} is not finite")
    low = a.min(axis=axis, initial=np.inf)
    _refuse(low < -tol.prob_sum, InvalidJoint,
            lambda at: f"negative {nouns[0]} {low[at]:.3e} below -{tol.prob_sum:.1e}")
    s = a.sum(axis=axis)
    _refuse(np.abs(s - 1.0) > tol.prob_sum, InvalidJoint, lambda at: (
        f"{nouns[1]} sum to {float(s[at])!r}, off by {abs(s[at] - 1.0):.3e} > {tol.prob_sum:.1e}"))
    return read_only(np.clip(a, 0.0, None))


def validate_probability_vector(p, tol=DEFAULT_TOL):
    """Validate a finite distribution: finite nonnegative entries summing to 1."""
    a = np.asarray(p, dtype=float)
    if a.ndim != 1:
        raise InvalidJoint(f"expected a 1-d weight vector, got shape {a.shape}")
    return _distribution_rows(a, tol)


def entropy_from_eigenvalues(eigs, floor=DEFAULT_TOL.psd_floor):
    """-sum(lam * log2 lam) with 0 log 0 := 0.

    Eigenvalues in [-floor, 0) are clamped to 0; more negative raises
    NotPositive.  Works on stacked inputs (entropy taken over the last axis).
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.size and np.minimum.reduce(lam, axis=None) < -floor:
        raise NotPositive(
            f"eigenvalue {lam.min():.3e} below the clamp floor -{floor:.1e}"
        )
    pos = lam > 0.0
    terms = np.where(pos, lam * np.log2(np.where(pos, lam, 1.0)), 0.0)
    # 0 - sum, not -sum: an all-zero sum (a pure state) gives +0.0, not -0.0
    return 0.0 - np.add.reduce(terms, axis=-1)


def eigvalsh_stack(mats):
    """Eigenvalues of a stack (..., d, d) of Hermitian matrices, ascending.

    The eigenvalue-only path, for callers that need entropies and nothing
    else: one LAPACK call on the complex stack.
    """
    return np.linalg.eigvalsh(np.asarray(mats, dtype=complex))


def eigh_stack(mats):
    """Spectral decomposition (w, v) of a stack (..., d, d) of Hermitian matrices.

    w holds the eigenvalues, ascending, and the columns of v the matching
    orthonormal eigenvectors, so entropies come from w and any matrix
    function f from v diag(f(w)) v†.  One LAPACK call on the complex
    stack; its eigenvalues may differ from ``eigvalsh_stack``'s in the
    last bits.
    """
    return np.linalg.eigh(np.asarray(mats, dtype=complex))


def von_neumann_entropy(rho, tol=DEFAULT_TOL):
    """Von Neumann entropy S(rho) in bits."""
    a = require_hermitian(rho, tol.hermitian)
    return float(entropy_from_eigenvalues(eigvalsh_stack(a), tol.psd_floor))


def shannon_entropy(p, tol=DEFAULT_TOL):
    """Shannon entropy H(p) in bits."""
    a = validate_probability_vector(p, tol)
    return float(entropy_from_eigenvalues(a, tol.prob_sum))


def validate_joint(joint, tol=DEFAULT_TOL):
    """Validate a joint distribution given as a 2-d array: its entries are one distribution."""
    a = np.asarray(joint, dtype=float)
    if a.ndim != 2:
        raise InvalidJoint(f"expected a 2-d joint matrix, got shape {a.shape}")
    return _distribution_rows(a, tol, ("entry", "entries"), axis=(0, 1))


def mutual_information(joint, tol=DEFAULT_TOL):
    """I(X;Y) in bits for a joint distribution over a finite product alphabet."""
    a = validate_joint(joint, tol)
    px = a.sum(axis=1)
    py = a.sum(axis=0)
    h = entropy_from_eigenvalues
    val = float(h(px, tol.prob_sum) + h(py, tol.prob_sum) - h(a.ravel(), tol.prob_sum))
    return max(val, 0.0)


def trace_norm(m):
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(eigvalsh_stack(np.asarray(m, dtype=complex))).sum())


def trace_distance(rho, sigma, tol=DEFAULT_TOL):
    """(1/2) ||rho - sigma||_1 for Hermitian operators of equal dimension."""
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return 0.5 * trace_norm(a - b)


def tensor(a, b):
    """Kronecker product of two operators."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(op, dims, axis):
    """Trace out one tensor factor of an operator.

    dims lists the factor dimensions in tensor order; axis selects the
    factor to remove, an integer >= 0.
    """
    axis = _integer(axis, "axis", 0)
    a = _as_complex_square(op)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise DimensionMismatch(
            f"operator of shape {a.shape} is not square of side the product of factors {total}"
        )
    if axis >= len(dims):
        raise BadSubsystemIndex(f"axis {axis} out of range for {len(dims)} factors")
    t = a.reshape(dims + dims)
    t = np.trace(t, axis1=axis, axis2=axis + len(dims))
    keep = int(np.prod([d for i, d in enumerate(dims) if i != axis]))
    return t.reshape(keep, keep)

