"""Shared instance builders and independent references for the test suite."""

from fractions import Fraction
from itertools import chain, combinations, product as iproduct
from math import ceil, comb, floor, inf, log2, prod

import numpy as np

from avcqc import Avcqc, CorrelatedSource, CqChannel, DeterministicCode, RandomCode
from avcqc.capacity import _HOLD_CAP, LN2, _aux_objective
from avcqc.channels import JammerStrategy, product_output
from avcqc.coding import (
    RepetitionPrecode,
    TwoPartCode,
    _site_traces,
    _success_tables,
    correlation_code_error_informed,
)
from avcqc.config import DEFAULT_CAPS, DEFAULT_TOL
from avcqc.errors import AlphabetMismatch, EnumerationOverflow, NotPositive, SpecParseError
from avcqc.geometry import (
    _NEWTON_SHIFT,
    _STEP_FLOOR,
    _free_entries,
    _solve_newton,
    project_simplex_rows,
)
from avcqc.operators import entropy_from_eigenvalues, validate_probability_vector
from avcqc.serialize import _count, _field, _load_json, _operators, _words, matrix_to_json
from avcqc.typicality import (
    _MASS_GAP_FLOOR,
    _PASS_SLACK,
    _SUPPORT_FLOOR,
    BOUND_IDS,
    BoundRow,
    TypicalityReport,
    stable_eigh,
)

ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
ONE = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def orthogonal_channel():
    """Jammer-independent channel with orthogonal pure outputs."""
    return Avcqc((0, 1), (0, 1), np.array([[ZERO, ZERO], [ONE, ONE]]))


def bitflip_channel():
    """rho(x, s) = |x xor s><x xor s|: the jammer can symmetrize it."""
    return Avcqc((0, 1), (0, 1), np.array([[ZERO, ONE], [ONE, ZERO]]))


def constant_channel(delta=None):
    """Every (input, state) pair yields the same output."""
    if delta is None:
        delta = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    return Avcqc((0, 1), (0, 1), np.array([[delta, delta], [delta, delta]]))


def flip_source(flip):
    """Binary source: uniform sender, receiver differs with probability flip."""
    a, b = (1.0 - flip) / 2.0, flip / 2.0
    return CorrelatedSource((0, 1), (0, 1), np.array([[a, b], [b, a]]))


def random_avcqc(rng, nx=2, ns=2, dim=2):
    states = np.stack(
        [[wishart_state(rng, dim) for _ in range(ns)] for _ in range(nx)]
    )
    return Avcqc(tuple(range(nx)), tuple(range(ns)), states)


def wishart_state(rng, d, rank=None):
    """Trace-normalized Ginibre-Wishart density matrix of the given rank."""
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def wishart_avcqc(rng, nx, ns, d):
    """AVCQC whose |X| x |S| states are full-rank Ginibre-Wishart draws."""
    states = np.stack([[wishart_state(rng, d) for _ in range(ns)] for _ in range(nx)])
    return Avcqc(tuple(range(nx)), tuple(range(ns)), states)


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
    # row-index tuples in lexicographic order, the last row varying fastest
    idx = np.indices((rows.shape[0],) * nx).reshape(nx, -1).T
    return rows[idx]  # (M, nx, ns)


# a move must gain more than this to be taken; smaller gains are rounding
_SEARCH_GAIN = 1e-13


def pattern_search(f, x0, span, floor):
    """Maximize f over row-stochastic matrices by compass search, batched over starts.

    x0 stacks m starts (m, rows, k); f maps a stack (n, rows, k) to n values.
    A move shifts mass span from coordinate j to coordinate i, for each
    ordered pair (i, j), either in one row or, when rows > 1, in every row
    at once: (rows + 1)·k(k−1) moves per start (k(k−1) for one row).
    The joint moves follow a ridge that crosses rows, which one-row moves
    could only climb in a zig-zag of ever smaller gains.  Each round
    projects and scores all moves of all live starts in one call each.  A
    start takes its best move if it gains more than _SEARCH_GAIN and then
    doubles its span, capped at the starting span; otherwise its span
    halves, and it leaves once span <= floor.  No state is shared between
    starts, so each ends as it would alone.

    Termination: f is bounded on the compact set of row-stochastic matrices
    and every success raises it by more than _SEARCH_GAIN, so a start has
    finitely many successes s.  Each success doubles the span at most once
    and each failure halves it, so a start fails at most
    s + log2(span/floor) + 1 times, and runs at most
    2·s + log2(span/floor) + 1 rounds.  Returns (values (m,), x (m, rows, k)).
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
    if rows > 1:
        steps = np.concatenate([steps, np.repeat(np.array(unit)[:, None], rows, axis=1)])
    spans = np.full(m, float(span))
    while (live := np.flatnonzero(spans > floor)).size:
        cand = project_simplex_rows(x[live, None] + spans[live, None, None, None] * steps)
        vals = f(cand.reshape(-1, rows, k)).reshape(live.size, -1)
        b = np.argmax(vals, axis=1)
        top = vals[np.arange(live.size), b]
        gain = top > best[live] + _SEARCH_GAIN
        best[live[gain]], x[live[gain]] = top[gain], cand[gain, b[gain]]
        spans[live] = np.where(gain, np.minimum(2.0 * spans[live], span), 0.5 * spans[live])
    return best, x

def aux_channel_search(src, budget, seed, slack=1e-9, restarts=64, grid_steps=16):
    """Lower-bound oracle for the large-correlation CR capacity F(budget).

    Maximizes I(U;V') over auxiliary channels P(U | V') with |U| = |V'| + 1
    subject to I(U;V') - I(U;V) <= budget + slack: the best kernel of a
    grid (binary V') and 64 seeded Dirichlet starts, run as one batched
    pattern search.  It has no upper bound; any feasible channel it finds
    lies below F(budget + slack).  Returns (value, channel).
    """
    joint = src.joint
    nvp = len(src.v_prime_alphabet)
    nu = nvp + 1
    rng = np.random.default_rng(seed)

    def feasible_value(k_rows):
        i_uvp, i_uv = _aux_objective(joint, k_rows)
        return np.where(i_uvp - i_uv <= budget + slack, i_uvp, -1.0)

    best_val, best_k = 0.0, np.full((nvp, nu), 1.0 / nu)
    if nvp == 2:
        grid = kernel_grid(nvp, nu, grid_steps)
        vals = feasible_value(grid)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_k = float(vals[k]), grid[k].copy()
    starts = np.stack([best_k] + [rng.dirichlet(np.ones(nu), size=nvp) for _ in range(restarts)])
    for val, k_rows in zip(*pattern_search(feasible_value, starts, 0.25, 1e-7)):
        if val > best_val:
            best_val, best_k = float(val), k_rows
    return max(best_val, 0.0), best_k


def binary_aux_grid_oracle(src, budget, steps=16):
    """Grid evaluation of the auxiliary-channel maximization for binary V'.

    Scores every kernel whose two rows P(U | V') lie on the step-1/steps
    grid of the three-letter simplex, and returns the largest I(U;V') whose
    leakage I(U;V') - I(U;V) is at most budget + 1e-9 (0 if none is).  The
    entropies are plain numpy, independent of the package.
    """
    joint = np.asarray(src.joint)
    rows = simplex_grid(3, steps)
    k = rows[np.indices((len(rows), len(rows))).reshape(2, -1).T]  # (M, 2, 3)

    def h(p):
        p = p.reshape(p.shape[0], -1)
        return -np.sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0), axis=1)

    def mi(j):
        return np.maximum(h(j.sum(axis=2)) + h(j.sum(axis=1)) - h(j), 0.0)

    i_uvp = mi(joint.sum(axis=1)[None, :, None] * k)
    i_uv = mi(np.einsum("vw,mvu->muw", joint, k))
    return float(np.max(i_uvp[i_uvp - i_uv <= budget + 1e-9], initial=0.0))


def dense_saddle_bracket(states, p, q):
    """(lo, hi) around max_P min_Q chi(P, W_Q) at (p, q), one np.linalg.eigh per matrix.

    lo: chi at (p, q) plus the Frank-Wolfe term of chi's linearisation in Q,
    minimized over the kernel polytope.  hi: max_x D(rho_x || rho_bar).
    """
    def log2m(m):
        lam, vec = np.linalg.eigh(m)
        return (vec * np.log2(np.clip(lam, 1e-18, None))) @ vec.conj().T

    rho_x = [sum(q[x, s] * states[x, s] for s in range(q.shape[1])) for x in range(q.shape[0])]
    rho_bar = sum(px * r for px, r in zip(p, rho_x))
    log_bar = log2m(rho_bar)
    diffs = [log2m(r) - log_bar for r in rho_x]
    d_x = np.array([np.real(np.trace(r @ dx)) for r, dx in zip(rho_x, diffs)])
    grad = np.array([[p[x] * np.real(np.trace(states[x, s] @ diffs[x]))
                      for s in range(q.shape[1])] for x in range(q.shape[0])])
    lo = p @ d_x + np.sum(grad.min(axis=1) - np.sum(grad * q, axis=1))
    return float(lo), float(d_x.max())


def kkt_matrix(h, rows, nrows):
    """[[h + shift I, A^T], [A, 0]] for a model Hessian h (F, F), with A[r, k] = 1 where
    rows[k] == r for nrows groups and the shift _NEWTON_SHIFT times h's largest diagonal
    entry: the KKT matrix assembled afresh from the free block, independently of the
    bordered matrix that ``geometry._solve_kkt`` gathers."""
    nf = h.shape[0]
    kkt = np.zeros((nf + nrows, nf + nrows))
    kkt[:nf, :nf] = h + _NEWTON_SHIFT * h.diagonal().max() * np.eye(nf)
    kkt[nf:, :nf] = rows == np.arange(nrows)[:, None]
    kkt[:nf, nf:] = kkt[nf:, :nf].T
    return kkt


def input_hessian_reference(pt):
    """chi_pp (X, X) and chi_pq (X, X*S) at a derived solver point, from its rotated
    states and Daleckii-Krein weights, each block on its own."""
    nx, ns = pt.q.shape
    bar = pt.bar.reshape(nx, ns, -1).view(float)
    rho = (pt.q[:, None] @ bar)[:, 0]
    bar = bar.reshape(nx * ns, -1)
    weighted = rho * pt.lam[-1]
    chi_pp = -(weighted @ rho.T) / LN2
    chi_pq = -(weighted @ bar.T) * pt.p.repeat(ns) / LN2
    rows = np.arange(nx)
    chi_pq.reshape(nx, nx, ns)[rows, rows] += pt.ratio
    return chi_pp, chi_pq


def saddle_hessian_reference(pt):
    """The saddle Hessian [[-chi_pp, -chi_pq], [chi_pq^T, chi_qq]] put together with np.block."""
    chi_pp, chi_pq = input_hessian_reference(pt)
    return np.block([[-chi_pp, -chi_pq], [chi_pq.T, pt.kernel_hessian]])


def saddle_direction_reference(pt, kernel_grad):
    """The solver's projected Newton direction (dp, dq) at a derived point, or None, from an
    independent assembly: np.block, the free block copied by hess[free][:, free] into
    ``kkt_matrix``, the hold bound always computed and the held letters' move always
    multiplied through the Hessian."""
    p, d_x = pt.p, pt.d_x
    nx, ns = pt.q.shape
    floor = min(_HOLD_CAP, float(np.sum(np.abs(p - project_simplex_rows(p + d_x)))))
    free = np.concatenate([(p > max(floor, _STEP_FLOOR)) | (d_x == d_x.max()),
                           _free_entries(pt.q, pt.grad).ravel()])
    hess = saddle_hessian_reference(pt)
    step = np.zeros(free.size)
    step[:nx] = np.where(free[:nx], 0.0, -p)
    rhs = np.concatenate([d_x, -kernel_grad.ravel()]) - hess @ step
    owner = np.concatenate([np.zeros(nx, dtype=int), 1 + np.arange(nx).repeat(ns)])
    sol = _solve_newton(kkt_matrix(hess[free][:, free], owner[free], nx + 1),
                        np.concatenate([rhs[free], [-step.sum()], np.zeros(nx)]))
    if sol is None:
        return None
    step[free] = sol[: free.sum()]
    step /= max(1.0, np.max(np.abs(step[:nx])))
    return step[:nx], step[nx:].reshape(pt.q.shape)


def _entropies(mats):
    """Von Neumann entropies of a stack; eigenvalues in [-1e-9, 0) count as 0.

    The spectra do not come from the package's spectral helper: at d = 2
    they are (a + c)/2 -+ hypot((a - c)/2, |b|) for the matrix [[a, b], [b*, c]],
    and above it numpy's eigvalsh."""
    m = np.asarray(mats, dtype=complex)
    if m.shape[-1] == 2:
        a, c = m[..., 0, 0].real, m[..., 1, 1].real
        mid, rad = (a + c) / 2.0, np.hypot((a - c) / 2.0, np.abs(m[..., 0, 1]))
        lam = np.stack([mid - rad, mid + rad], axis=-1)
    else:
        lam = np.linalg.eigvalsh(m)
    return entropy_from_eigenvalues(lam, floor=1e-9)


def _chi_batch(p, states, q):
    """chi for stacked input distributions p (..., X) and kernels q (..., X, S)."""
    rho_x = np.einsum("...xs,xsij->...xij", q, states)
    rho_bar = np.einsum("...x,...xij->...ij", p, rho_x)
    return _entropies(rho_bar) - np.einsum("...x,...x->...", p, _entropies(rho_x))


def _chi_p_rows_vs_kernels(states, p_rows, kernels):
    """chi for every (p, kernel) pair; returns (len(p_rows), len(kernels)).

    Chunked over the input-distribution axis so the transient (chunk,
    kernels, d, d) mixture stack stays within a fixed memory budget.
    """
    out = np.empty((p_rows.shape[0], kernels.shape[0]))
    rho_x = np.einsum("mxs,xsij->mxij", kernels, states)
    s_x = _entropies(rho_x)                          # (M, X)
    chunk = max(1, int(4e6 / max(kernels.shape[0], 1)))
    for lo in range(0, p_rows.shape[0], chunk):
        pr = p_rows[lo : lo + chunk]
        rho_bar = np.einsum("px,mxij->pmij", pr, rho_x)
        out[lo : lo + chunk] = _entropies(rho_bar) - pr @ s_x.T
    return out


def _refined_inner_min(states, p_rows, kernels, span):
    """Per input distribution: the best grid kernel, refined by pattern search."""
    table = _chi_p_rows_vs_kernels(states, p_rows, kernels)
    out = np.empty(p_rows.shape[0])
    for r, p in enumerate(p_rows):
        def neg_chi(q):
            return -_chi_batch(np.broadcast_to(p, (q.shape[0], p.size)), states, q)
        out[r] = -pattern_search(neg_chi, kernels[int(np.argmin(table[r]))][None], span, 1e-6)[0][0]
    return out


def maxmin_grid_oracle(w, steps=32, eval_budget=int(2.2e7)):
    """Grid + local-zoom evaluation of the max-min value, independent of the solver.

    Tabulates chi on a step-1/steps grid of input distributions and
    kernels, then refines the best grid point by pattern search, the inner
    minimum of each candidate by a pattern search of its own.  Returns None
    when |X| or |S| exceeds 3 or the grid would exceed eval_budget (grid
    sizes are counted before any grid is built): every alphabet pair with
    |X|, |S| <= 3 except (3, 3) fits, and the three-letter cases take
    about ten seconds.
    """
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    if nx > 3 or ns > 3:
        return None
    n_p = comb(steps + nx - 1, nx - 1)
    n_kernels = comb(steps + ns - 1, ns - 1) ** nx
    if n_p * n_kernels > eval_budget:
        return None
    p_rows = simplex_grid(nx, steps)
    kernels = kernel_grid(nx, ns, steps)
    inner = _chi_p_rows_vs_kernels(w.states, p_rows, kernels).min(axis=1)
    p0 = p_rows[int(np.argmax(inner))]
    span = 1.0 / steps
    best, _ = pattern_search(
        lambda p: _refined_inner_min(w.states, p[:, 0], kernels, span), p0[None, None], span, 1e-6
    )
    return float(max(best[0], 0.0))


def separable_instance(rng, nx, d):
    """Distinct near-pure letters; the jammer mixes in at most 20% noise.

    The benchmark's fixed separation draws, rng = default_rng([2024, nx, d]).
    """
    letters = [wishart_state(rng, d, rank=1) for _ in range(nx)]
    leak = rng.uniform(0.05, 0.2)
    states = np.stack([[(1 - leak) * letters[x] + leak * wishart_state(rng, d) for _ in range(2)]
                       for x in range(nx)])
    f = rng.uniform(0.05, 0.2)
    src = CorrelatedSource((0, 1), (0, 1), [[(1 - f) / 2, f / 2], [f / 2, (1 - f) / 2]])
    return Avcqc(tuple(range(nx)), (0, 1), states), src


def projected_gradient_distance(gen0, gen1, row_len0, row_len1, steps):
    """|gen0 q0 - gen1 q1| at the best of `steps` accelerated projected-gradient (FISTA)
    iterates from the uniform kernels, each row of q0 and q1 on a simplex: the distance
    at a feasible point, an upper bound on the set distance found without Newton steps."""
    joint = np.concatenate([gen0, -gen1], axis=1)
    k0 = gen0.shape[1]
    step = 1.0 / (2.0 * np.linalg.norm(joint, 2) ** 2)

    def proj(v):
        return np.concatenate([project_simplex_rows(v[:k0].reshape(-1, row_len0)).ravel(),
                               project_simplex_rows(v[k0:].reshape(-1, row_len1)).ravel()])

    z = np.concatenate([np.full(k0, 1.0 / row_len0), np.full(gen1.shape[1], 1.0 / row_len1)])
    y, t, best = z, 1.0, np.linalg.norm(joint @ z)
    for _ in range(steps):
        nxt = proj(y - step * 2.0 * (joint.T @ (joint @ y)))
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = nxt + ((t - 1.0) / t_next) * (nxt - z)
        z, t = nxt, t_next
        best = min(best, np.linalg.norm(joint @ z))
    return float(best)


def scattered_labels(xs, letter_labels):
    """Reference basis labels of a conditional typical projector on the word xs.

    letter_labels[x] lists the typical label subsequences of the positions
    carrying letter x.  Every combination of one subsequence per letter,
    letters sorted by str and the first varying slowest, is scattered into
    its positions.
    """
    from itertools import product as iproduct

    block_positions = {}
    for i, x in enumerate(xs):
        block_positions.setdefault(x, []).append(i)
    block_keys = sorted(block_positions, key=str)
    labels = []
    for combo in iproduct(*(letter_labels[x] for x in block_keys)):
        full = [0] * len(xs)
        for x, sub in zip(block_keys, combo):
            for slot, j in zip(block_positions[x], sub):
                full[slot] = j
        labels.append(tuple(full))
    return tuple(labels)


def mirror_pair_channel():
    """Two near-pure mirror states averaging to diag(3/4, 1/4) under uniform p."""
    b = np.sqrt(0.92**2 - 0.5**2) / 2.0
    w0 = np.array([[0.75, b], [b, 0.25]], dtype=complex)
    w1 = np.array([[0.75, -b], [-b, 0.25]], dtype=complex)
    return CqChannel((0, 1), np.stack([w0, w1]))


def binary_entropy(q):
    out = 0.0
    for v in (q, 1.0 - q):
        if v > 0.0:
            out -= v * np.log2(v)
    return out


def kron_block_weights(src, g, iota, x_alphabet):
    """Reference for separation._block_weights: weights[x, v] from the
    iota-fold Kronecker powers of the transition matrix and the receiver
    marginal, one preimage row added per word of g."""
    cond, pv_word = np.ones((1, 1)), np.ones(1)
    for _ in range(iota):
        cond = np.kron(cond, src.sender_given_receiver)     # P(V'=u | V=v)
        pv_word = np.kron(pv_word, src.receiver_marginal)
    vp_index = {sym: i for i, sym in enumerate(src.v_prime_alphabet)}
    x_index = {x: i for i, x in enumerate(x_alphabet)}
    radix = (len(vp_index),) * iota
    acc = np.zeros((len(x_alphabet), pv_word.size))
    for u, x in g.items():
        acc[x_index[x]] += cond[np.ravel_multi_index([vp_index[c] for c in u], radix)]
    return acc * pv_word


def encoder_generators(embedded, weights):
    """One encoder's real (|V|^iota d^2, |X||S|) generator matrix, the einsum
    separation_test writes each half of its joint matrix [gen0, -gen1] with:
    column (x, s) stacks the embedded generator w_x(v) W(x, s) of every
    block v, embedded the embed_stack of the channel's states (X, S, d^2)."""
    nx, ns = embedded.shape[:2]
    return np.einsum("xv,xse->vexs", weights, embedded).reshape(-1, nx * ns)


def per_codeword_success_table(w, xs, g, ss=None):
    """Reference for one row of coding._success_tables: the contraction of
    one codeword xs alone, site by site, the running table (T, d*rest,
    d*rest) copied to (T, d^2, rest^2) and multiplied by W(x_i, .)^T as
    (|S|, d^2), or by W(x_i, s_i)^T as (1, d^2) at the state word ss."""
    d = w.dim
    s_rows = [slice(None)] * len(xs) if ss is None else [[w.s_alphabet.index(s)] for s in ss]
    t = g[None]                                  # (state words so far, rest, rest)
    for x, rows in zip(xs, s_rows):
        rest = t.shape[-1] // d
        site = w.states[w.x_alphabet.index(x), rows].swapaxes(1, 2).reshape(-1, d * d)
        legs = t.reshape(-1, d, rest, d, rest).transpose(0, 1, 3, 2, 4)
        t = (site @ legs.reshape(-1, d * d, rest * rest)).reshape(-1, rest, rest)
    return np.real(t.ravel())


def success_table(w, xs, g, ss=None):
    """coding._success_tables on the one codeword xs, in letters, and the
    one stack g (..., D, D), at the state word ss when given, raveled."""
    xi = np.array([[w.x_alphabet.index(x) for x in xs]])
    si = None if ss is None else np.array([[w.s_alphabet.index(s) for s in ss]])
    return _success_tables(w, xi, [g], si)[0].ravel()


def einsum_success_tables(w, xi, ops, si=None):
    """Reference for coding._success_tables without state words: the
    einsum_success_table of each row and each operator of its stack,
    (N, ..., |S|^n)."""
    assert si is None
    tables = []
    for row, g in zip(xi, ops):
        xs = tuple(w.x_alphabet[i] for i in row)
        flat = [einsum_success_table(w, xs, g_m) for g_m in np.reshape(g, (-1, *g.shape[-2:]))]
        tables.append(np.reshape(flat, (*g.shape[:-2], -1)))
    return np.array(tables)


def einsum_success_table(w, xs, g):
    """Reference for one row of coding._success_tables: each site
    contracted by one five-axis einsum, first site first."""
    d = w.dim
    t = g[None]
    for x in xs:
        rest = t.shape[-1] // d
        t = np.einsum(
            "tab,SbBaA->StBA", w.states[w.x_alphabet.index(x)],
            t.reshape(t.shape[0], d, rest, d, rest),
        ).reshape(-1, rest, rest)
    return np.real(t.ravel())


def kron_chain_precode(cert, gp, src, w, num_keys, nu):
    """Reference pre-code: encoders and decoders of repetition_precode, each
    decoder built as a sum of per-site np.kron chains, one chain per outcome
    word in bits order."""
    from itertools import product as iproduct

    iota = gp.iota
    l = nu * iota
    # the first num_keys words of the greedy lexicographic code at the
    # largest minimum distance that has num_keys words
    for dist in range(nu, 0, -1):
        key_words = []
        for bits in iproduct((0, 1), repeat=nu):
            if all(sum(a != b for a, b in zip(bits, kw)) >= dist for kw in key_words):
                key_words.append(bits)
        if len(key_words) >= num_keys:
            key_words = key_words[:num_keys]
            break

    def decode_word(bits):
        dists = [sum(a != b for a, b in zip(bits, kw)) for kw in key_words]
        return int(np.argmin(dists))

    v_prime_words = list(iproduct(src.v_prime_alphabet, repeat=l))
    v_words = list(iproduct(src.v_alphabet, repeat=l))
    block_index = {
        blk: i for i, blk in enumerate(iproduct(range(len(src.v_alphabet)), repeat=iota))
    }
    v_sym_index = {sym: i for i, sym in enumerate(src.v_alphabet)}
    encoders = [
        [
            tuple(
                (gp.g0 if kw[t] == 0 else gp.g1)[u[t * iota : (t + 1) * iota]]
                for t in range(nu)
            )
            for kw in key_words
        ]
        for u in v_prime_words
    ]
    dim_total = w.dim ** nu
    decoders = np.zeros((len(v_words), num_keys, dim_total, dim_total), dtype=complex)
    site_ops = {}
    for vi, v in enumerate(v_words):
        blocks = [
            block_index[tuple(v_sym_index[c] for c in v[t * iota : (t + 1) * iota])]
            for t in range(nu)
        ]
        key = tuple(blocks)
        if key not in site_ops:
            ops = np.zeros((num_keys, dim_total, dim_total), dtype=complex)
            for bits in iproduct((0, 1), repeat=nu):
                povm = np.ones((1, 1), dtype=complex)
                for t, bit in enumerate(bits):
                    povm = np.kron(povm, cert.measurement[blocks[t], bit])
                ops[decode_word(bits)] += povm
            site_ops[key] = ops
        decoders[vi] = site_ops[key]
    return encoders, decoders


def kron_assembled_decoders(pre, inner, v_index):
    """(J, D, D) whole-word decoders of a two-part code for one receiver word:
    sum_k pre.decoders[v, k] (x) (inner decoder of message j under key k),
    each built with np.kron."""
    return np.stack([
        sum(np.kron(pre.decoders[v_index, k], det.decoders[j]) for k, det in enumerate(inner.codes))
        for j in range(inner.num_messages)
    ])


def two_part_error_reference(pre, inner, w, src, caps=DEFAULT_CAPS):
    """Reference (error, JammerStrategy) of a two-part code on its whole
    words: each full word's decoder sum, with the source-weighted pre
    decoders kron-assembled against the inner ones, is traced against every
    full product state, and the jammer takes the first state word within
    1e-12 of the minimum."""
    j_n, k_n = inner.num_messages, inner.num_keys
    joint = np.ones((1, 1))
    for _ in range(pre.l):
        joint = np.kron(joint, src.joint)
    weights = {}
    for ui, k, j in iproduct(range(len(pre.v_prime_words)), range(k_n), range(j_n)):
        xs = tuple(pre.encoders[ui][k]) + tuple(inner.codes[k].codebook[j])
        weights[xs, j] = weights.get((xs, j), 0.0) + joint[ui]
    grouped = {}
    for (xs, j), wv in weights.items():
        pre_ops = np.einsum("v,vkab->kab", wv, pre.decoders)
        g = sum(np.kron(pre_ops[k], det.decoders[j]) for k, det in enumerate(inner.codes))
        grouped[xs] = grouped.get(xs, 0.0) + g / (j_n * k_n)
    s_words = list(iproduct(w.s_alphabet, repeat=pre.n + inner.n))
    success, strategy = 0.0, {}
    for xs, g in grouped.items():
        vals = np.array([
            np.real(np.trace(product_output(w, xs, ss, caps) @ g)) for ss in s_words
        ])
        success += vals.min()
        strategy[xs] = s_words[int(np.argmax(vals <= vals.min() + 1e-12))]
    return min(max(1.0 - success, 0.0), 1.0), JammerStrategy(strategy)


def cr_generation_reference(w, src, code, trials, seed, caps=DEFAULT_CAPS):
    """Reference key-agreement run: coding.cr_generation_run as one loop over
    the trials, each drawing its source pairs, message, key, outcome and
    guess with rng.choice from one default_rng(seed) stream and building its
    outcome probabilities (and, on the dense path, its product state) on its
    own.  A two-part code runs on its kron-assembled whole-word decoders and
    full product states."""
    rng = np.random.default_rng(seed)

    def uniform_index(n):
        return int(rng.choice(n, p=np.full(n, 1 / n)))

    def dense_probs(dec, xs, ss):
        return np.real(np.einsum("jab,ba->j", dec, product_output(w, xs, ss, caps)))

    if isinstance(code, TwoPartCode):
        jammer = code.jammer
        words_src = code.pre
        decoder_cache = {}

        def encode(u_index, j):
            k = uniform_index(code.inner.num_keys)
            return tuple(words_src.encoders[u_index][k]) + tuple(
                code.inner.codes[k].codebook[j]
            )

        def outcome_probs(v_i, xs, ss):
            if v_i not in decoder_cache:
                decoder_cache[v_i] = kron_assembled_decoders(code.pre, code.inner, v_i)
            return dense_probs(decoder_cache[v_i], xs, ss)

    else:
        _, jammer = correlation_code_error_informed(code, w, src, caps, return_strategy=True)
        words_src = code

        def encode(u_index, j):
            return code.encoders[u_index][j]

        if isinstance(code, RepetitionPrecode):
            traces = _site_traces(code, w)
            n_blocks = (len(code.site),) * code.n

            def outcome_probs(v_i, xs, ss):
                p = np.ones(1)
                for b, x, s in zip(np.unravel_index(v_i, n_blocks), xs, ss):
                    p = np.outer(p, traces[b, :, w.x_alphabet.index(x), w.s_alphabet.index(s)])
                return np.bincount(code.bit_keys, weights=p.ravel(), minlength=code.num_messages)

        else:

            def outcome_probs(v_i, xs, ss):
                return dense_probs(code.decoders[v_i], xs, ss)

    j_n = code.num_messages
    vp_index = {u: i for i, u in enumerate(words_src.v_prime_words)}
    v_index = {v: i for i, v in enumerate(words_src.v_words)}
    pairs = list(iproduct(src.v_prime_alphabet, src.v_alphabet))
    pair_probs = src.joint.ravel()
    pair_probs = pair_probs / pair_probs.sum()
    rows = []
    agreed = []
    hits = 0
    for t in range(trials):
        drawn = rng.choice(len(pairs), size=words_src.l, p=pair_probs)
        u_word = tuple(pairs[i][0] for i in drawn)
        v_word = tuple(pairs[i][1] for i in drawn)
        j = uniform_index(j_n)
        xs = encode(vp_index[u_word], j)
        ss = jammer(xs)
        probs = np.clip(outcome_probs(v_index[v_word], xs, ss), 0.0, None)
        full = np.append(probs, max(1.0 - probs.sum(), 0.0))
        outcome = int(rng.choice(j_n + 1, p=full / full.sum()))
        guess = uniform_index(j_n)
        if outcome == j_n:
            outcome = guess
        ok = outcome == j
        hits += ok
        if ok:
            agreed.append(j)
        rows.append(
            {
                "trial": t,
                "v_prime": "".join(str(c) for c in u_word),
                "v": "".join(str(c) for c in v_word),
                "j": j,
                "decoded": outcome,
                "jammer_choice": "".join(str(c) for c in ss),
            }
        )
    if agreed:
        counts = np.bincount(np.array(agreed), minlength=j_n).astype(float)
        entropy = float(entropy_from_eigenvalues(counts / counts.sum(), floor=DEFAULT_TOL.prob_sum))
    else:
        entropy = 0.0
    return {"agreement_rate": hits / trials, "empirical_entropy": entropy, "rows": rows}


def spectral_validate_povm(ops, tol_eig=1e-9):
    """Reference POVM check of a stack (..., J, D, D) from full spectra.

    Computes every operator's and every sum's eigenvalues with
    np.linalg.eigvalsh and raises NotPositive for the first offender, in
    POVM order and positivity before the sum, with the messages of the
    package's check on words counted from 0.
    """
    ops = np.asarray(ops, dtype=complex)
    flat = ops.reshape(-1, *ops.shape[-3:])
    lo = np.linalg.eigvalsh(flat)[..., 0]
    excess = np.linalg.eigvalsh(flat.sum(axis=1) - np.eye(ops.shape[-1]))[..., -1]
    neg = lo < -tol_eig
    bad = neg.any(axis=1) | (excess > tol_eig)
    if bad.any():
        i = int(np.argmax(bad))
        if neg[i].any():
            k = int(np.argmax(neg[i]))
            raise NotPositive(
                f"decoding operator {k} has eigenvalue {lo[i, k]:.3e} < -{tol_eig:.1e} "
                f"in word {i}"
            )
        raise NotPositive(
            f"decoder sum exceeds the identity by {excess[i]:.3e} > {tol_eig:.1e} in word {i}"
        )


def random_povm_stack(rng, n, j, d):
    """n random j-outcome POVMs on C^d whose sums are c I, c in [0.5, 0.99].

    Each POVM is S^{-1/2} G_j S^{-1/2} scaled by c, for complex Wishart G_j
    with sum S, so every operator is positive definite.
    """
    g = rng.standard_normal((n, j, d, d)) + 1j * rng.standard_normal((n, j, d, d))
    g = g @ g.conj().swapaxes(-1, -2)
    lam, vec = np.linalg.eigh(g.sum(axis=1))
    inv_sqrt = (vec * lam[:, None, :] ** -0.5) @ vec.conj().swapaxes(-1, -2)
    ops = rng.uniform(0.5, 0.99, size=(n, 1, 1, 1)) * (inv_sqrt[:, None] @ g @ inv_sqrt[:, None])
    return (ops + ops.conj().swapaxes(-1, -2)) / 2


# ---------------------------------------------------------------------------
# per-block-length typicality verifier (reference for the batched one)
# ---------------------------------------------------------------------------

def per_block_window_classes(p, n, half_width, guard=DEFAULT_TOL.typicality_boundary,
                             caps=DEFAULT_CAPS):
    """Count vectors c (len(p) entries, sum n) with |c/n - p| <= half_width, one n.

    Labels with probability below the support floor are pinned to count 0.
    Counts grow label by label inside the window widened by one, each step's
    candidates checked against caps.enumeration first.  The window and the
    test are exact rationals, c/n against p and the float half_width + guard,
    so no count is lost to rounding at any n.  Lexicographic order.
    """
    p = np.asarray(p, dtype=float)
    exact_p, width = [Fraction(pj) for pj in p.tolist()], Fraction(half_width + guard)
    sides = []
    for pj, exact in zip(p[:-1].tolist(), exact_p):
        lo = max(0, min(n, ceil(n * (exact - width)) - 1))
        hi = 0 if pj < _SUPPORT_FLOOR else max(0, min(n, floor(n * (exact + width)) + 1))
        sides.append(np.arange(lo, hi + 1, dtype=np.int64))
    counts = np.zeros((1, 0), dtype=np.int64)
    for side in sides:
        if (rows := len(counts) * side.size) > caps.enumeration:
            raise EnumerationOverflow(
                f"window candidate count {rows} exceeds the enumeration cap {caps.enumeration}")
        counts = np.column_stack([np.repeat(counts, side.size, axis=0), np.tile(side, len(counts))])
        counts = counts[counts.sum(axis=1) <= n]
    counts = np.column_stack([counts, n - counts.sum(axis=1)])
    return [
        tuple(c) for c in counts.tolist()
        if all(abs(Fraction(cj, n) - exact) <= width and not (pj < _SUPPORT_FLOOR and cj)
               for cj, exact, pj in zip(c, exact_p, p.tolist()))
    ]


def _type_counts(p, n):
    """Deterministic largest-remainder rounding of n*p to integer counts."""
    base = np.floor(n * p).astype(int)
    rem = n - base.sum()
    frac = n * p - base
    order = np.argsort(-frac, kind="stable")
    for i in range(rem):
        base[order[i]] += 1
    return base


def _multinomial(n, counts):
    total, rem = 1, n
    for c in counts:
        total *= comb(rem, c)
        rem -= c
    return total


def per_block_class_aggregates(p, n, classes):
    """(mass, rank, min log2 prob, max log2 prob) over the typical count classes."""
    if not classes:
        return 0.0, 0, inf, -inf
    logs = []
    mass = 0.0
    rank = 0
    for c in classes:
        lp = sum(ci * np.log2(p[j]) for j, ci in enumerate(c) if ci > 0)
        m = _multinomial(n, c)
        rank += m
        mass += m * 2.0 ** lp
        logs.append(lp)
    return float(mass), rank, float(min(logs)), float(max(logs))


def per_block_cross_mass(site_values, typical_classes, d, caps=DEFAULT_CAPS):
    """sum over typical label sequences y of prod_i site_values[i][y_i].

    Dynamic program over the positions on a dense table of the label counts
    c_0..c_{d-2}, each axis cut at the largest count a typical class uses;
    typical cells summed in descending lexicographic order.
    """
    classes = sorted(typical_classes, reverse=True)
    if not classes:
        return 0
    keep = np.array(classes)[:, : d - 1]
    shape = tuple(keep.max(axis=0) + 1)
    cells = prod(shape)
    if cells > caps.enumeration:
        raise EnumerationOverflow(
            f"count table size {cells} exceeds the enumeration cap {caps.enumeration}"
        )
    table = np.zeros(shape)
    table[(0,) * (d - 1)] = 1.0
    for vals in site_values:
        nxt = table * vals[d - 1]
        for j in range(d - 2, -1, -1):
            lead = (slice(None),) * j
            nxt[lead + (slice(1, None),)] += table[lead + (slice(None, -1),)] * vals[j]
        table = nxt
    return sum(table[tuple(c)] for c in keep.tolist())


def _mass_bound_rows(bound_id, ns, masses):
    """A mass bound's rows and fitted exponent, one scalar requirement per n."""
    gaps = [1.0 - mass for mass in masses]
    reqs = [inf if gap <= _MASS_GAP_FLOOR else -np.log2(gap) / n for n, gap in zip(ns, gaps)]
    fitted = min(reqs)
    rows = []
    for n, req in zip(ns, reqs):
        slack = 0.0 if req == fitted else float(req - fitted)
        rows.append(BoundRow(bound_id, n, float(req), float(fitted), slack, slack >= -_PASS_SLACK))
    return rows, float(fitted)


def _exponent_bound_rows(bound_id, ns, reqs):
    """An exponent bound's rows and fitted exponent, one scalar requirement per n."""
    fitted = max(reqs)
    rows = [
        BoundRow(bound_id, n, float(req), float(fitted), float(fitted - req),
                 fitted - req >= -_PASS_SLACK)
        for n, req in zip(ns, reqs)
    ]
    return rows, float(fitted)


def per_block_typicality_bounds(w, p, n_range, alpha, caps=DEFAULT_CAPS, tol=DEFAULT_TOL):
    """verify_typicality_bounds computed one block length at a time.

    Each n enumerates its own source and conditional window classes, sums
    their aggregates class by class and runs its own cross-mass DP over its
    n positions; the first n with a count over caps.enumeration raises.  A
    range of more block lengths than caps.enumeration raises before any n.
    """
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    ns = list(n_range)
    if len(ns) > caps.enumeration:
        raise EnumerationOverflow(
            f"n_range length at least {caps.enumeration + 1} exceeds the enumeration cap "
            f"{caps.enumeration}")
    sigma = np.einsum("x,xij->ij", pv, w.states)
    sig_lam, sig_u = stable_eigh(sigma)
    sig_spec = np.clip(sig_lam, 0.0, None)
    s_sigma = float(entropy_from_eigenvalues(sig_spec))
    letter_spec = {}
    for x in w.x_alphabet:
        lam, _ = stable_eigh(w.state(x))
        letter_spec[x] = np.clip(lam, 0.0, None)
    diag_in_sig_basis = {
        x: np.real(np.einsum("ij,jk,ki->i", sig_u.conj().T, w.state(x), sig_u))
        for x in w.x_alphabet
    }

    src_mass, src_rank_req, src_win_req = [], [], []
    cond_mass, cond_win_req, cond_rank_req = [], [], []
    cross_mass_vals = []
    d = w.dim
    guard = tol.typicality_boundary
    for n in ns:
        typ_classes = per_block_window_classes(sig_spec, n, alpha, guard, caps)
        mass, rank, lmin, lmax = per_block_class_aggregates(sig_spec, n, typ_classes)
        src_mass.append(mass)
        src_rank_req.append(abs(log2(rank) / n - s_sigma) if rank else inf)
        src_win_req.append(max(-s_sigma - lmin / n, s_sigma + lmax / n))

        counts = _type_counts(pv, n)
        xs = []
        for xi, x in enumerate(w.x_alphabet):
            xs.extend([x] * counts[xi])
        type_fracs = counts / n
        s_cond = float(
            sum(
                type_fracs[xi] * entropy_from_eigenvalues(letter_spec[x])
                for xi, x in enumerate(w.x_alphabet)
            )
        )
        cmass, crank, clmin, clmax = 1.0, 1, 0.0, 0.0
        for xi, x in enumerate(w.x_alphabet):
            m = int(counts[xi])
            if m == 0:
                continue
            bmass, brank, blmin, blmax = per_block_class_aggregates(
                letter_spec[x], m,
                per_block_window_classes(letter_spec[x], m, alpha, guard, caps),
            )
            cmass *= bmass
            crank *= brank
            clmin += blmin
            clmax += blmax
        cond_mass.append(cmass)
        cond_rank_req.append(abs(log2(crank) / n - s_cond) if crank else inf)
        cond_win_req.append(max(-s_cond - clmin / n, s_cond + clmax / n))

        site_values = [diag_in_sig_basis[x] for x in xs]
        cross_mass_vals.append(per_block_cross_mass(site_values, set(typ_classes), d, caps))

    rows, constants = [], {}
    for bound_id, data in (
        ("source_mass", src_mass),
        ("conditional_mass", cond_mass),
        ("average_state_mass", cross_mass_vals),
    ):
        r, c = _mass_bound_rows(bound_id, ns, data)
        rows.extend(r)
        constants[bound_id] = c
    for bound_id, reqs in (
        ("source_rank", src_rank_req),
        ("source_eigen_window", src_win_req),
        ("conditional_rank", cond_rank_req),
        ("conditional_eigen_window", cond_win_req),
    ):
        r, c = _exponent_bound_rows(bound_id, ns, reqs)
        rows.extend(r)
        constants[bound_id] = c
    order = {b: i for i, b in enumerate(BOUND_IDS)}
    rows.sort(key=lambda r: (order[r.bound_id], r.n))
    return TypicalityReport(rows=tuple(rows), constants=constants)


# ---------------------------------------------------------------------------
# code files: deterministic and random codes, read by no command
# ---------------------------------------------------------------------------

def deterministic_code_to_json(code):
    return {
        "kind": "deterministic",
        "n": code.n,
        "codebook": [list(xs) for xs in code.codebook],
        "decoders": [matrix_to_json(d) for d in code.decoders],
    }


def load_deterministic_code(obj_or_path):
    """Deterministic code spec (a path, or the parsed object of one)."""
    obj = _load_json(obj_or_path) if isinstance(obj_or_path, str) else obj_or_path
    what = obj_or_path if isinstance(obj_or_path, str) else "code spec"
    if _field(obj, "kind", what) != "deterministic":
        raise SpecParseError(f"{what}: expected a deterministic code spec")
    n = _count(_field(obj, "n", what), f"{what}: n")
    return DeterministicCode(
        n=n,
        codebook=_words(_field(obj, "codebook", what), n, f"{what}: codebook"),
        decoders=_operators(_field(obj, "decoders", what), f"{what}: decoders"),
    )


def random_code_to_json(code):
    return {
        "kind": "random",
        "codes": [deterministic_code_to_json(c) for c in code.codes],
    }


def load_random_code(path):
    obj = _load_json(path)
    if _field(obj, "kind", path) != "random":
        raise SpecParseError(f"{path}: expected a random code spec")
    codes = _field(obj, "codes", path)
    if not isinstance(codes, list):
        raise SpecParseError(f"{path}: codes must be a list of deterministic code specs")
    return RandomCode(tuple(load_deterministic_code(c) for c in codes))
