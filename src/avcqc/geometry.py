"""Real embedding of Hermitian operators and convex set-distance solvers.

Hermitian d x d matrices form a real vector space of dimension d**2; the
embedding used here preserves the trace inner product, so Euclidean
geometry on the embedded vectors is Frobenius geometry on operators.
The distance solver decides whether two affinely parameterized convex
sets (images of products of probability simplices) intersect.  The
simplex toolbox (grids, compositions, projection and a compass search
over row-stochastic matrices) lives here too.
"""

from itertools import chain, combinations
from itertools import product as iproduct
from math import comb

import numpy as np

from .errors import DimensionMismatch


def embed_hermitian(h):
    """Map a Hermitian matrix to a real vector of length dim**2.

    Diagonal entries map directly; each off-diagonal pair (i < j) maps to
    sqrt(2)*Re and sqrt(2)*Im components, so dot(embed(A), embed(B)) equals
    tr(A B) for Hermitian A, B.
    """
    a = np.asarray(h, dtype=complex)
    d = a.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    off = a[iu, ju]
    return np.concatenate(
        [np.real(np.diagonal(a)), np.sqrt(2.0) * np.real(off), np.sqrt(2.0) * np.imag(off)]
    )


def unembed_hermitian(vec):
    """Inverse of embed_hermitian."""
    v = np.asarray(vec, dtype=float)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionMismatch(f"vector length {v.size} is not a square")
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, v[:d])
    iu, ju = np.triu_indices(d, k=1)
    k = len(iu)
    re = v[d : d + k] / np.sqrt(2.0)
    im = v[d + k : d + 2 * k] / np.sqrt(2.0)
    m[iu, ju] = re + 1j * im
    m[ju, iu] = re - 1j * im
    return m


def embed_stack(mats):
    """Embed a stack (..., d, d) of Hermitian matrices; returns (..., d**2)."""
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


def simplex_grid(k, steps):
    """All length-k distributions with entries that are multiples of 1/steps."""
    return compositions(k, steps) / steps


def kernel_grid(nx, ns, steps):
    """Every (nx, ns) row-stochastic matrix whose rows lie on simplex_grid(ns, steps)."""
    rows = simplex_grid(ns, steps)
    idx = list(iproduct(range(rows.shape[0]), repeat=nx))
    return rows[np.array(idx)]  # (M, nx, ns)


# a move must gain more than this to be taken; smaller gains are rounding
_SEARCH_GAIN = 1e-13


def pattern_search(f, x0, span, floor):
    """Maximize f over row-stochastic matrices by compass search, batched over starts.

    x0 stacks m starts (m, rows, k); f maps a stack (n, rows, k) to n values.
    Each round moves mass span from coordinate j to coordinate i of one row,
    for every live start, row and ordered pair (i, j), and projects and scores
    all moves in one call each; a start takes its best move if it gains more
    than _SEARCH_GAIN, else its own span halves, and leaves once span <= floor,
    so it ends as it would alone.  Returns (values (m,), x (m, rows, k)).
    """
    x = np.array(x0, dtype=float)
    m, rows, k = x.shape
    best = np.array(f(x), dtype=float)
    if k < 2:
        return best, x
    eye = np.eye(k)
    unit = [eye[i] - eye[j] for i in range(k) for j in range(k) if i != j]
    steps = np.zeros((rows, len(unit), rows, k))
    steps[np.arange(rows), :, np.arange(rows)] = unit
    steps = steps.reshape(-1, rows, k)
    spans = np.full(m, float(span))
    while (live := np.flatnonzero(spans > floor)).size:
        cand = project_simplex_rows(x[live, None] + spans[live, None, None, None] * steps)
        vals = f(cand.reshape(-1, rows, k)).reshape(live.size, -1)
        b = np.argmax(vals, axis=1)
        top = vals[np.arange(live.size), b]
        gain = top > best[live] + _SEARCH_GAIN
        best[live[gain]], x[live[gain]] = top[gain], cand[gain, b[gain]]
        spans[live[~gain]] *= 0.5
    return best, x


def _fista_rows(gram, lin, q0, row_len, tol, max_iter):
    """Minimize q^T gram q / 2 + lin . q over rows-of-simplices (flattened q).

    Accelerated projected gradient with adaptive restart; gram is PSD.
    """
    lip = max(float(np.linalg.norm(gram, 2)), 1e-30)
    step = 1.0 / lip

    def proj(v):
        return project_simplex_rows(v.reshape(-1, row_len)).ravel()

    def obj(v):
        return 0.5 * float(v @ gram @ v) + float(lin @ v)

    q = proj(q0.copy())
    z = q.copy()
    t = 1.0
    f_prev = obj(q)
    for _ in range(max_iter):
        grad = gram @ z + lin
        q_new = proj(z - step * grad)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = q_new + ((t - 1.0) / t_new) * (q_new - q)
        f_new = obj(q_new)
        if f_new > f_prev:  # adaptive restart of the momentum
            z = q_new.copy()
            t_new = 1.0
        if abs(f_prev - f_new) < tol:
            q = q_new
            break
        q, t, f_prev = q_new, t_new, f_new
    return q, obj(q)


def _polish_on_support(gen, z, row_bounds, thresh):
    """Exact equality-constrained least squares on the detected support.

    gen is (D, K); z a feasible flattened point whose rows (given by
    row_bounds index pairs) lie on simplices.  Entries above thresh form
    the support; each row keeps its largest entry as the eliminated
    reference coordinate, the row-sum constraints are substituted away and
    the reduced unconstrained least squares is solved exactly.  Returns
    (objective, z) or None when the solution leaves the nonnegative cone.
    """
    support = z > thresh
    offset = np.zeros(gen.shape[0])
    cols = []
    col_owner = []  # (row index, coordinate) per reduced column
    refs = []
    for r, (lo, hi) in enumerate(row_bounds):
        sup = np.flatnonzero(support[lo:hi]) + lo
        if sup.size == 0:
            sup = np.array([lo + int(np.argmax(z[lo:hi]))])
        ref = sup[np.argmax(z[sup])]
        refs.append(ref)
        offset += gen[:, ref]
        for i in sup:
            if i != ref:
                cols.append(gen[:, i] - gen[:, ref])
                col_owner.append((r, i))
    z_new = np.zeros_like(z)
    if cols:
        basis = np.stack(cols, axis=1)
        y, *_ = np.linalg.lstsq(basis, -offset, rcond=None)
        for (r, i), val in zip(col_owner, y):
            z_new[i] = val
    row_extra = np.zeros(len(row_bounds))
    for (r, i) in col_owner:
        row_extra[r] += z_new[i]
    for r, ref in enumerate(refs):
        z_new[ref] = 1.0 - row_extra[r]
    if z_new.min() < -1e-10:
        return None
    z_new = np.clip(z_new, 0.0, None)
    for lo, hi in row_bounds:
        s = z_new[lo:hi].sum()
        if s > 0:
            z_new[lo:hi] /= s
    resid = gen @ z_new
    return float(resid @ resid), z_new


def affine_set_distance(
    gen0,
    gen1,
    row_len0,
    row_len1,
    rng,
    restarts=16,
    tol=1e-12,
    max_rounds=60,
    inner_iter=400,
):
    """Distance between conv images {gen0 @ q0} and {gen1 @ q1}.

    gen* are (D, K*) matrices whose columns generate the sets; q* are
    flattened kernels whose consecutive groups of row_len* entries each lie
    on a probability simplex.  The squared distance is jointly convex in
    (q0, q1): alternating accelerated projected-gradient half-steps locate
    the active support, then an exact least-squares polish on that support
    removes the first-order tail (so genuinely intersecting sets report
    distances at the rounding floor, not at the iteration budget).

    Returns (distance, q0, q1) for the best pair found.
    """
    g0 = np.asarray(gen0, dtype=float)
    g1 = np.asarray(gen1, dtype=float)
    k0, k1 = g0.shape[1], g1.shape[1]
    gram0 = g0.T @ g0
    gram1 = g1.T @ g1
    joint = np.concatenate([g0, -g1], axis=1)
    bounds = [(i, i + row_len0) for i in range(0, k0, row_len0)]
    bounds += [(k0 + i, k0 + i + row_len1) for i in range(0, k1, row_len1)]

    def joint_obj(q0, q1):
        diff = g0 @ q0 - g1 @ q1
        return float(diff @ diff)

    best = None
    for r in range(restarts):
        if r == 0:
            q0 = np.full(k0, 1.0 / row_len0)
            q1 = np.full(k1, 1.0 / row_len1)
        else:
            q0 = rng.dirichlet(np.ones(row_len0), size=k0 // row_len0).ravel()
            q1 = rng.dirichlet(np.ones(row_len1), size=k1 // row_len1).ravel()
        f = joint_obj(q0, q1)
        for _ in range(max_rounds):
            target = g1 @ q1
            q0, _ = _fista_rows(gram0, -(g0.T @ target), q0, row_len0, tol, inner_iter)
            target = g0 @ q0
            q1, _ = _fista_rows(gram1, -(g1.T @ target), q1, row_len1, tol, inner_iter)
            f_new = joint_obj(q0, q1)
            done = f - f_new < tol
            f = f_new
            if done:
                break
        z = np.concatenate([q0, q1])
        for thresh in (1e-7, 1e-10):
            polished = _polish_on_support(joint, z, bounds, thresh)
            if polished is not None and polished[0] < f:
                f, z_best = polished
                q0, q1 = z_best[:k0], z_best[k0:]
        if best is None or f < best[0]:
            best = (f, q0.copy(), q1.copy())
        if best[0] <= 1e-28:
            break
    dist = float(np.sqrt(max(best[0], 0.0)))
    return dist, best[1], best[2]
