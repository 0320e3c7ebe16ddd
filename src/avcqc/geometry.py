"""Real embedding of Hermitian operators and the convex set-distance solver.

Hermitian d x d matrices form a real vector space of dimension d**2; the
embedding used here preserves the trace inner product, so Euclidean
geometry on the embedded vectors is Frobenius geometry on operators.
The distance solver decides whether two affinely parameterized convex
sets (images of products of probability simplices) intersect.  The
Euclidean projection onto the simplex, the layout of a product of simplices
with its KKT system (``_Simplices``) and the one projected Newton loop on it
(``_projected_newton``), which the kernel descent in capacity drives with
its own point and accept test, live here too.
"""

from functools import cache

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .operators import _integer

# entries at most this are under the rounding of a simplex projection, which
# leaves residues of about 3e-17 where it should leave zeros: such an entry
# counts as 0 in a Newton step's active set
_STEP_FLOOR = 1e-14
# Newton systems are shifted by this times their largest diagonal entry, so
# that a model flat along some direction (a duplicated generator or jammer
# letter) still gives a solvable system
_NEWTON_SHIFT = 1e-12
# Frank-Wolfe gap that ends the set-distance solve when the caller gives none
_GAP_STOP = 1e-12
# Newton steps of the set-distance solve when the caller gives no budget
_DISTANCE_STEPS = 100
# step lengths tried on one Newton direction (``_projected_newton``) before a solve stops
_STEP_TRIALS = 20


@cache
def _embed_indices(d):
    """Read-only index arrays (diagonal, upper rows, upper columns) of a d x d matrix."""
    indices = (np.arange(d), *np.triu_indices(d, k=1))
    for a in indices:
        a.flags.writeable = False
    return indices


def embed_stack(mats):
    """Embed a stack (..., d, d) of Hermitian matrices; returns (..., d**2).

    Diagonal entries map directly; each off-diagonal pair (i < j) maps to
    sqrt(2)*Re and sqrt(2)*Im components, so dot(embed(A), embed(B)) equals
    tr(A B) for Hermitian A, B.
    """
    a = np.asarray(mats, dtype=complex)
    ii, iu, ju = _embed_indices(a.shape[-1])
    diag = np.real(a[..., ii, ii])
    off = a[..., iu, ju]
    return np.concatenate(
        [diag, np.sqrt(2.0) * np.real(off), np.sqrt(2.0) * np.imag(off)], axis=-1
    )


def project_simplex_rows(y):
    """Euclidean projection of each row of y onto the probability simplex.

    Entries of -inf pad a row: they sort below every real entry, project to
    0 and leave the row's other entries as its unpadded projection, bit for
    bit, so rows of unequal width share one call (``_Simplices.project``).
    """
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1, y.shape[-1])
    u = -flat
    u.sort(axis=1)
    np.negative(u, out=u)
    # u > css / k, not u - css / k > 0: the same test on finite entries, and
    # -inf > -inf is false where -inf - -inf would be nan
    mean = (u.cumsum(axis=1) - 1.0) / np.arange(1, y.shape[-1] + 1)
    rho = np.add.reduce(u > mean, axis=1)
    theta = mean[np.arange(flat.shape[0]), rho - 1]
    return np.maximum(flat - theta[:, None], 0.0).reshape(y.shape)


def _free_entries(q, g):
    """Mask of the entries of q that a projected Newton step moves, row by row on the last axis.

    An entry at most _STEP_FLOOR whose gradient g exceeds its row's minimum
    is held at 0; every other entry is free.  The row's minimizing entries
    are always free, so each row keeps at least one.
    """
    return (q > _STEP_FLOOR) | (g == np.minimum.reduce(g, axis=-1, keepdims=True))


def _solve_newton(kkt, rhs):
    """kkt^-1 rhs, or None if the system is singular or the solution overflows."""
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol if np.logical_and.reduce(np.isfinite(sol)) else None


class _Simplices:
    """A product of probability simplices laid out in one flat point, built once per solve.

    parts lists the (slice, row length) of each block of the n entries, in
    order; the blocks' nrows rows each lie on a simplex.  ``kkt`` is the
    bordered matrix [[h, A^T], [A, 0]], A[r, k] = 1 where entry k lies in
    row r: the solve writes its model Hessian into the view ``hess`` of h,
    marks in ``keep`` the rows a system solves on (the constraint rows last,
    always kept) and writes ``rhs`` before each ``_solve_kkt``.
    """

    def __init__(self, parts):
        lengths = [r for sl, r in parts for _ in range(sl.start, sl.stop, r)]
        self.n, self.nrows = n, nrows = sum(lengths), len(lengths)
        self.kkt = np.zeros((n + nrows, n + nrows))
        # entry k and the constraint row of its simplex, row i repeated by its length
        entry, row = np.arange(n), np.arange(n, n + nrows).repeat(lengths)
        self.kkt[row, entry] = self.kkt[entry, row] = 1.0
        self.hess = self.kkt[:n, :n]
        self.keep, self.rhs = np.ones(n + nrows, dtype=bool), np.zeros(n + nrows)
        # the rows padded with -inf to one width, and the slots of the n entries in it
        self.rows = np.full((nrows, max(lengths)), -np.inf)
        self.slots = np.arange(max(lengths)) < np.array(lengths)[:, None]

    def project(self, y):
        """The Euclidean projection of the flat point y onto the product: one
        ``project_simplex_rows`` call on every row at once, padded with -inf."""
        self.rows[self.slots] = y
        return project_simplex_rows(self.rows)[self.slots]


def _solve_kkt(system):
    """(free, x) of the Newton system of a ``_Simplices`` on the entries it keeps, or None.

    The Hessian block has a nonnegative diagonal, convex or a saddle's block
    with its maximized rows negated.  The kept rows and columns are gathered
    with one index, the kept Hessian block is shifted by _NEWTON_SHIFT times
    its largest diagonal entry, and the system is solved against rhs on
    them: free holds the kept entries and x the solution on them.  None if
    the system is singular or the solution overflows.
    """
    idx = system.keep.nonzero()[0]
    sub = system.kkt[idx[:, None], idx]
    nf = idx.size - system.nrows
    diag = sub.reshape(-1)[: nf * (idx.size + 1) : idx.size + 1]
    diag += _NEWTON_SHIFT * np.maximum.reduce(diag)
    sol = _solve_newton(sub, system.rhs[idx])
    return None if sol is None else (idx[:nf], sol[:nf])


def _projected_newton(state, parts, at, accept, max_iter, gap_stop):
    """Projected Newton descent on a product of simplices: (last state, steps, reason).

    parts lists the (slice, row length) of each block of the flat point,
    whose rows lie on probability simplices.  at(state) gives (z, grad, gap,
    hess): the point, its gradient, its Frank-Wolfe gap and a callable for
    the Hessian, called only once the gap is open.  A step holds at 0 the
    entries ``_free_entries`` holds and every entry at 0 that the direction
    D would push below 0, solving the KKT system of the solve's one
    ``_Simplices`` on the rest until D is feasible.  It tries _STEP_TRIALS
    lengths, 1, the blocking t that lands an entry on 0 if shorter (computed
    once 1 is refused), then halvings of it, projecting z + t D in one call;
    accept(state, candidate) gives the next state or None.  The reason is
    "gap" (gap <= gap_stop), "max_iter", "singular" (a singular KKT system)
    or "no_step": every length refused, or a projection that returns z, as
    the normal cone at z is a cone and every shorter length returns z too.
    """
    steps = 0
    while True:
        z, grad, gap, hess = at(state)
        if gap <= gap_stop:
            return state, steps, "gap"
        if steps == max_iter:
            return state, steps, "max_iter"
        if steps == 0:
            system = _Simplices(parts)
            n, keep, rhs = system.n, system.keep, system.rhs
        system.hess[...] = hess()
        np.negative(grad, out=rhs[:n])
        for sl, r in parts:
            keep[sl] = _free_entries(z[sl].reshape(-1, r), grad[sl].reshape(-1, r)).ravel()
        while True:
            solved = _solve_kkt(system)
            if solved is None:
                return state, steps, "singular"
            direction = np.zeros(n)
            direction[solved[0]] = solved[1]
            leaving = keep[:n] & (z <= _STEP_FLOOR) & (direction < 0.0)
            if not leaving.any():
                break
            keep[:n] &= ~leaving
        t = 1.0
        for trial in range(_STEP_TRIALS):
            cand = system.project(z + t * direction)
            if np.array_equal(cand, z):
                return state, steps, "no_step"
            nxt = accept(state, cand)
            if nxt is not None:
                break
            if trial == 0:
                down = direction < 0.0
                t = float(np.min(z[down] / -direction[down])) if down.any() else 1.0
                t = t if t < 1.0 else 0.5
            else:
                t /= 2.0
        else:
            return state, steps, "no_step"
        state, steps = nxt, steps + 1


def affine_set_distance(gen0, gen1, row_len0, row_len1, tol=_GAP_STOP, max_iter=_DISTANCE_STEPS):
    """Distance between conv images {gen0 @ q0} and {gen1 @ q1}, with a certified lower bound.

    gen* are (D, K*) matrices whose columns generate the sets; q* are
    flattened kernels whose consecutive groups of row_len* entries each lie
    on a probability simplex.  f(z) = |gen0 q0 - gen1 q1|^2 is a convex
    quadratic in z = (q0, q1) with the constant Hessian 2G, G the Gram
    matrix of [gen0, -gen1], so a Newton step on the right face is exact.
    From the uniform kernels, the loop ``_projected_newton`` (the kernel
    descent's too) steps on 2G and keeps the first trial point at which f
    does not rise, read from the exact residual difference.  It stops once
    the Frank-Wolfe gap grad f(z) . z - sum over rows of min_i grad f(z)_i,
    which bounds f(z) - min f, is <= tol, after max_iter steps, or on a
    singular system or no new point.  One to three steps close the gap on
    the separation draws.

    Returns (distance, lower, q0, q1): distance = sqrt f at the returned
    point and lower = sqrt max(f - gap, 0), a certified lower bound; f and
    the gap are taken from the residual gen0 q0 - gen1 q1.  A row length
    not an integer >= 1, a max_iter not an integer >= 0, generators not of
    real numbers, or a Gram matrix that is not finite (an entry not finite or
    too large) raises InvalidArgument, and generators not (D, K*) with K* a
    positive multiple of their row length raise DimensionMismatch.
    """
    r0, r1 = _integer(row_len0, "row_len0", 1), _integer(row_len1, "row_len1", 1)
    max_iter = _integer(max_iter, "max_iter", 0)
    g0, g1 = np.asarray(gen0), np.asarray(gen1)
    if g0.dtype.kind not in "iuf" or g1.dtype.kind not in "iuf":
        raise InvalidArgument(f"generators must be real numbers, got {g0.dtype} and {g1.dtype}")
    g0, g1 = g0.astype(float, copy=False), g1.astype(float, copy=False)
    if not (g0.ndim == g1.ndim == 2 and len(g0) == len(g1) and g0.shape[1] and g1.shape[1]
            and g0.shape[1] % r0 == g1.shape[1] % r1 == 0):
        raise DimensionMismatch(f"generators of shapes {g0.shape} and {g1.shape} are not (D, K) "
                                f"with K a positive multiple of the row lengths {r0} and {r1}")
    k0, k1 = g0.shape[1], g1.shape[1]
    joint = np.concatenate([g0, -g1], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        hess = 2.0 * (joint.T @ joint)
    # a non-finite entry makes the Gram matrix non-finite, as does one whose square overflows
    if not np.logical_and.reduce(np.isfinite(hess), axis=None):
        raise InvalidArgument("the generators' Gram matrix is not finite: an entry is not finite "
                              "or too large")
    parts = ((slice(0, k0), r0), (slice(k0, k0 + k1), r1))

    def point(z):
        # f and its gradient from the residual, so f near 0 is not lost to
        # cancellation in z . G z
        resid = joint @ z
        f, grad = float(resid @ resid), 2.0 * (joint.T @ resid)
        gap = float(grad @ z) - sum(float(grad[sl].reshape(-1, r).min(axis=1).sum())
                                    for sl, r in parts)
        return z, resid, f, grad, gap

    def accept(state, cand):
        z, resid = state[:2]
        # f(cand) - f(z), free of the cancellation between the two values
        moved = joint @ (cand - z)
        return point(cand) if float(moved @ (2.0 * resid + moved)) <= 0.0 else None

    start = point(np.concatenate([np.full(sl.stop - sl.start, 1.0 / r) for sl, r in parts]))
    (z, _, f, _, gap), _, _ = _projected_newton(
        start, parts, lambda s: (s[0], s[3], s[4], lambda: hess), accept, max_iter, tol)
    # f - gap <= min f in exact arithmetic; a negative gap is rounding
    return float(np.sqrt(f)), float(np.sqrt(max(f - max(gap, 0.0), 0.0))), z[:k0], z[k0:]
