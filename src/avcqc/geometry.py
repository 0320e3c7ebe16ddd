"""Real embedding of Hermitian operators and the convex set-distance solver.

Hermitian d x d matrices form a real vector space of dimension d**2; the
embedding used here preserves the trace inner product, so Euclidean
geometry on the embedded vectors is Frobenius geometry on operators.
The distance solver decides whether two affinely parameterized convex
sets (images of products of probability simplices) intersect.  The
Euclidean projection onto the simplex and the composition enumerator
(typicality) live here too.
"""

from itertools import chain, combinations
from math import comb

import numpy as np


def embed_stack(mats):
    """Embed a stack (..., d, d) of Hermitian matrices; returns (..., d**2).

    Diagonal entries map directly; each off-diagonal pair (i < j) maps to
    sqrt(2)*Re and sqrt(2)*Im components, so dot(embed(A), embed(B)) equals
    tr(A B) for Hermitian A, B.
    """
    a = np.asarray(mats, dtype=complex)
    d = a.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    diag = np.real(a[..., np.arange(d), np.arange(d)])
    off = a[..., iu, ju]
    return np.concatenate(
        [diag, np.sqrt(2.0) * np.real(off), np.sqrt(2.0) * np.imag(off)], axis=-1
    )


def project_simplex_rows(y):
    """Euclidean projection of each row of y onto the probability simplex."""
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1, y.shape[-1])
    u = -np.sort(-flat, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, y.shape[-1] + 1)
    cond = u - css / idx > 0
    rho = np.count_nonzero(cond, axis=1)
    theta = css[np.arange(flat.shape[0]), rho - 1] / rho
    out = np.maximum(flat - theta[:, None], 0.0)
    return out.reshape(y.shape)


def compositions(k, total):
    """All k-tuples of nonnegative integers summing to total, in lexicographic order.

    They are the rows of the (m, k) int array returned.  Stars and bars: the
    k - 1 bars take increasing slots among total + k - 1, and the parts are
    the gaps between consecutive bars.
    """
    end = total + k - 1
    m = comb(end, k - 1)
    bars = np.fromiter(
        chain.from_iterable(combinations(range(end), k - 1)), dtype=int, count=m * (k - 1)
    ).reshape(m, k - 1)
    edges = np.concatenate([np.full((m, 1), -1), bars, np.full((m, 1), end)], axis=1)
    return np.diff(edges, axis=1) - 1


# floor on the step's Lipschitz constant: identical generators give a zero Gram matrix
_LIPSCHITZ_FLOOR = 1e-30
# support thresholds of the polish, loosest first: entries above one form the support
_POLISH_SUPPORT = (1e-7, 1e-10)
# a polished entry below -this has left its simplex, so that polish is discarded
_POLISH_NEGATIVE = 1e-10
# Frank-Wolfe gap that ends the set-distance solve when the caller gives none
_GAP_STOP = 1e-12


def _fista(gram, z, proj, fw_gap, tol, max_iter):
    """Minimize f(z) = z . gram z over products of simplices from the feasible z.

    Accelerated projected gradient with adaptive restart of the momentum;
    gram is PSD.  Stops once fw_gap(z, grad f(z)) <= tol or after max_iter
    steps.  The gradient 2 gram y at the momentum point y is the same
    combination of the iterates' gradients, so each step costs one product.
    """
    step = 1.0 / max(float(np.linalg.norm(gram, 2)), _LIPSCHITZ_FLOOR)
    hz = gram @ z
    f = float(z @ hz)
    y, hy, t = z, hz, 1.0
    for _ in range(max_iter):
        if fw_gap(z, 2.0 * hz) <= tol:
            break
        z_new = proj(y - step * hy)
        hz_new = gram @ z_new
        f_new = float(z_new @ hz_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if f_new > f:
            y, hy, t_new = z_new, hz_new, 1.0
        else:
            beta = (t - 1.0) / t_new
            y = z_new + beta * (z_new - z)
            hy = hz_new + beta * (hz_new - hz)
        z, hz, f, t = z_new, hz_new, f_new, t_new
    return z


def _polish_on_support(gen, z, row_bounds, thresh):
    """Exact equality-constrained least squares on the detected support.

    gen is (D, K); z a feasible flattened point whose rows (given by
    row_bounds index pairs) lie on simplices.  Entries above thresh form
    the support; each row keeps its largest entry as the eliminated
    reference coordinate, the row-sum constraints are substituted away and
    the reduced unconstrained least squares is solved exactly.  Returns the
    polished z, or None when the solution leaves the nonnegative cone.
    """
    owner = np.repeat(np.arange(len(row_bounds)), [hi - lo for lo, hi in row_bounds])
    refs = np.array([lo + int(np.argmax(z[lo:hi])) for lo, hi in row_bounds])
    free = np.flatnonzero(z > thresh)
    free = free[~np.isin(free, refs)]
    z_new = np.zeros_like(z)
    if free.size:
        basis = gen[:, free] - gen[:, refs[owner[free]]]
        z_new[free] = np.linalg.lstsq(basis, -gen[:, refs].sum(axis=1), rcond=None)[0]
    z_new[refs] = 1.0 - np.bincount(owner[free], weights=z_new[free], minlength=len(refs))
    if z_new.min() < -_POLISH_NEGATIVE:
        return None
    z_new = np.clip(z_new, 0.0, None)
    z_new /= np.bincount(owner, weights=z_new)[owner]
    return z_new


def affine_set_distance(
    gen0, gen1, row_len0, row_len1, rng, restarts=16, tol=_GAP_STOP, max_iter=2000
):
    """Distance between conv images {gen0 @ q0} and {gen1 @ q1}, with a certified lower bound.

    gen* are (D, K*) matrices whose columns generate the sets; q* are
    flattened kernels whose consecutive groups of row_len* entries each lie
    on a probability simplex.  f(z) = |gen0 q0 - gen1 q1|^2 is jointly convex
    in z = (q0, q1), so one accelerated projected-gradient run on the Gram
    matrix of [gen0, -gen1], from the uniform kernels, solves it.  The run
    stops once the Frank-Wolfe gap grad f(z) . z - sum over rows of
    min_i grad f(z)_i, which bounds f(z) - min f, is <= tol; a least-squares
    polish on the detected support removes the first-order tail, and the
    gap is tested again.  Only a run that leaves the gap open is followed by
    another, from a seeded Dirichlet draw, at most `restarts` times.

    Returns (distance, lower, q0, q1): distance = sqrt f at the best point
    found and lower = sqrt max(f - gap, 0), a certified lower bound.
    """
    g0 = np.asarray(gen0, dtype=float)
    g1 = np.asarray(gen1, dtype=float)
    k0 = g0.shape[1]
    joint = np.concatenate([g0, -g1], axis=1)
    gram = joint.T @ joint
    parts = ((slice(0, k0), row_len0), (slice(k0, joint.shape[1]), row_len1))
    bounds = [(i, i + r) for sl, r in parts for i in range(sl.start, sl.stop, r)]

    def proj(v):
        return np.concatenate(
            [project_simplex_rows(v[sl].reshape(-1, r)).ravel() for sl, r in parts]
        )

    def fw_gap(z, grad):
        row_mins = sum(float(grad[sl].reshape(-1, r).min(axis=1).sum()) for sl, r in parts)
        return float(grad @ z) - row_mins

    def exact(z):
        # from the residual, so f near 0 is not lost to cancellation in z . gram z
        resid = joint @ z
        return float(resid @ resid), fw_gap(z, 2.0 * (joint.T @ resid)), z

    best, lower = None, 0.0
    for r in range(restarts + 1):
        z = np.concatenate([
            rng.dirichlet(np.ones(k), size=(sl.stop - sl.start) // k).ravel() if r
            else np.full(sl.stop - sl.start, 1.0 / k)
            for sl, k in parts
        ])
        z = _fista(gram, z, proj, fw_gap, tol, max_iter)
        point = exact(z)
        for thresh in _POLISH_SUPPORT:
            polished = _polish_on_support(joint, z, bounds, thresh)
            if polished is not None and (candidate := exact(polished))[0] < point[0]:
                point = candidate
        f, gap, z = point
        lower = max(lower, f - max(gap, 0.0))
        if best is None or f < best[0]:
            best = (f, z)
        if gap <= tol:
            break
    f, z = best
    # lower <= min f in exact arithmetic; the clip only drops rounding
    return float(np.sqrt(f)), float(np.sqrt(min(lower, f))), z[:k0], z[k0:]
