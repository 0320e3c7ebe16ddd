"""Real embedding of Hermitian operators and the convex set-distance solver.

Hermitian d x d matrices form a real vector space of dimension d**2; the
embedding used here preserves the trace inner product, so Euclidean
geometry on the embedded vectors is Frobenius geometry on operators.
The distance solver decides whether two affinely parameterized convex
sets (images of products of probability simplices) intersect.  The
Euclidean projection onto the simplex and the projected Newton step on
products of simplices (``_newton_steps``: direction and step lengths),
which the kernel descent in capacity shares with its own accept test, live
here too.
"""

from functools import cache

import numpy as np

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
# step lengths tried on one Newton direction (``_newton_steps``) before a solve stops
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
    bit, so rows of unequal width share one call.
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


def _bordered(owner, nrows):
    """[[0, A^T], [A, 0]] (F + nrows, F + nrows) with A[r, k] = 1 where owner[k] == r: the
    KKT matrix of the zero-sum constraint of each of nrows groups of F entries, whose
    (F, F) block the caller fills with its model Hessian before ``_solve_kkt``."""
    nf = len(owner)
    kkt = np.zeros((nf + nrows, nf + nrows))
    kkt[nf:, :nf] = owner == np.arange(nrows)[:, None]
    kkt[:nf, nf:] = kkt[nf:, :nf].T
    return kkt


def _solve_kkt(kkt, keep, rhs, nrows):
    """(free, x) of one Newton system on the entries a mask keeps, or None.

    kkt is a ``_bordered`` matrix whose Hessian block h has a nonnegative
    diagonal, convex or a saddle's block with its maximized rows negated;
    keep marks its rows, the nrows constraint rows last and all kept.  The
    kept rows and columns are gathered with one index, the kept block of h
    is shifted by _NEWTON_SHIFT times its largest diagonal entry, and the
    system is solved against rhs[keep]: free holds the kept entries of h's
    index and x the solution on them.  None if the system is singular or
    the solution overflows.
    """
    idx = keep.nonzero()[0]
    sub = kkt[idx[:, None], idx]
    nf = idx.size - nrows
    diag = sub.reshape(-1)[: nf * (idx.size + 1) : idx.size + 1]
    diag += _NEWTON_SHIFT * np.maximum.reduce(diag)
    sol = _solve_newton(sub, rhs[idx])
    return None if sol is None else (idx[:nf], sol[:nf])


def _newton_steps(hess, grad, z, free, owner, nrows):
    """Feasible Newton direction D of f at z and the step lengths to try on it, or None.

    D solves the KKT system of the Hessian hess on the free entries, one
    zero-sum constraint per row (owner gives each entry's row).  Free
    entries at 0 that D would push below 0 are held there as well and the
    system is solved again, until D is feasible; every row keeps its entries
    above _STEP_FLOOR, so none is left without a free entry.  None if a
    system is singular.  The _STEP_TRIALS lengths are 1, then the blocking t
    that lands an entry on 0 if that is shorter (computed only once 1 is
    refused), then halvings of that t.  The caller projects z + t D onto its
    simplices and accepts by its own test.
    """
    kkt = _bordered(owner, nrows)
    kkt[: z.size, : z.size] = hess
    keep = np.ones(z.size + nrows, dtype=bool)
    rhs = np.concatenate([-grad, np.zeros(nrows)])
    while True:
        keep[: z.size] = free
        found = _solve_kkt(kkt, keep, rhs, nrows)
        if found is None:
            return None
        direction = np.zeros(z.shape)
        direction[found[0]] = found[1]
        leaving = free & (z <= _STEP_FLOOR) & (direction < 0.0)
        if not leaving.any():
            break
        free = free & ~leaving

    def lengths():
        yield 1.0
        down = direction < 0.0
        t = float(np.min(z[down] / -direction[down])) if down.any() else 1.0
        t = t if t < 1.0 else 0.5
        for _trial in range(_STEP_TRIALS - 1):
            yield t
            t /= 2.0

    return direction, lengths()


def affine_set_distance(gen0, gen1, row_len0, row_len1, tol=_GAP_STOP, max_iter=_DISTANCE_STEPS):
    """Distance between conv images {gen0 @ q0} and {gen1 @ q1}, with a certified lower bound.

    gen* are (D, K*) matrices whose columns generate the sets; q* are
    flattened kernels whose consecutive groups of row_len* entries each lie
    on a probability simplex.  f(z) = |gen0 q0 - gen1 q1|^2 is a convex
    quadratic in z = (q0, q1) with the constant Hessian 2G, G the Gram
    matrix of [gen0, -gen1], so a Newton step on the right face is exact.
    From the uniform kernels, each step (``_newton_steps``, shared with the
    kernel descent) holds at 0 the entries ``_free_entries`` holds and every
    entry at 0 that the step would push below 0, so that the direction D
    from the KKT system of 2G on the free entries (one zero-sum constraint
    per row) is feasible.  It tries the projection of z + t D for t = 1,
    the largest t that keeps the entries nonnegative (landing the blocking
    entry on 0) and halvings of that t, and accepts the first point at
    which f does not rise.  The solve ends once the Frank-Wolfe gap
    grad f(z) . z - sum over rows of min_i grad f(z)_i, which bounds
    f(z) - min f, is <= tol, after max_iter steps, or when no step finds a
    new point.  One to three steps close the gap on the separation draws.

    Returns (distance, lower, q0, q1): distance = sqrt f at the returned
    point and lower = sqrt max(f - gap, 0), a certified lower bound; f and
    the gap are taken from the residual gen0 q0 - gen1 q1.
    """
    g0 = np.asarray(gen0, dtype=float)
    g1 = np.asarray(gen1, dtype=float)
    k0, k1 = g0.shape[1], g1.shape[1]
    joint = np.concatenate([g0, -g1], axis=1)
    hess = 2.0 * (joint.T @ joint)
    parts = ((slice(0, k0), row_len0), (slice(k0, k0 + k1), row_len1))
    owner = np.concatenate([np.arange(k0) // row_len0, k0 // row_len0 + np.arange(k1) // row_len1])
    nrows = int(owner[-1]) + 1

    def rows(v):
        return [v[sl].reshape(-1, r) for sl, r in parts]

    def proj(v):
        return np.concatenate([project_simplex_rows(r).ravel() for r in rows(v)])

    z = np.concatenate([np.full(sl.stop - sl.start, 1.0 / r) for sl, r in parts])
    # f and its gradient from the residual, so f near 0 is not lost to
    # cancellation in z . G z
    resid = joint @ z
    for step in range(max_iter + 1):
        f, grad = float(resid @ resid), 2.0 * (joint.T @ resid)
        gap = float(grad @ z) - sum(float(g.min(axis=1).sum()) for g in rows(grad))
        if gap <= tol or step == max_iter:
            break
        free = np.concatenate([_free_entries(q, g).ravel() for q, g in zip(rows(z), rows(grad))])
        found = _newton_steps(hess, grad, z, free, owner, nrows)
        if found is None:
            break
        direction, lengths = found
        for t in lengths:
            cand = proj(z + t * direction)
            # f(cand) - f(z), free of the cancellation between the two values
            moved = joint @ (cand - z)
            if float(moved @ (2.0 * resid + moved)) <= 0.0:
                break
        else:
            break
        if np.array_equal(cand, z):
            break
        z, resid = cand, joint @ cand
    # f - gap <= min f in exact arithmetic; a negative gap is rounding
    return float(np.sqrt(f)), float(np.sqrt(max(f - max(gap, 0.0), 0.0))), z[:k0], z[k0:]
