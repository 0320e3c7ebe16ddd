"""Shared instance builders and independent references for the test suite."""

from math import comb

import numpy as np

from avcqc import Avcqc, CorrelatedSource, CqChannel
from avcqc.errors import NotPositive
from avcqc.geometry import kernel_grid, pattern_search, simplex_grid
from avcqc.operators import eigvalsh_stack, entropy_from_eigenvalues

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
    from avcqc.operators import random_density

    states = np.stack(
        [[random_density(rng, dim) for _ in range(ns)] for _ in range(nx)]
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


def _entropies(mats):
    """Von Neumann entropies of a stack; eigenvalues in [-1e-9, 0) count as 0."""
    return entropy_from_eigenvalues(eigvalsh_stack(mats), floor=1e-9)


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


def kron_chain_precode(cert, gp, src, w, num_keys, nu):
    """Reference pre-code: encoders and decoders of repetition_precode, each
    decoder built as a sum of per-site np.kron chains, one chain per outcome
    word in bits order."""
    from itertools import product as iproduct

    iota = gp.iota
    l = nu * iota
    if num_keys == 2:
        key_words = [(0,) * nu, (1,) * nu]
    else:
        key_words = sorted(iproduct((0, 1), repeat=nu))[:num_keys]

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
                    povm = np.kron(povm, cert.measurement_block(bit, blocks[t]))
                ops[decode_word(bits)] += povm
            site_ops[key] = ops
        decoders[vi] = site_ops[key]
    return encoders, decoders


def spectral_validate_povm(ops, tol_eig=1e-9):
    """Reference POVM check of a stack (..., J, D, D) from full spectra.

    Computes every operator's and every sum's eigenvalues and raises
    NotPositive for the first offender, in POVM order and positivity before
    the sum, with the messages of the package's check.
    """
    ops = np.asarray(ops, dtype=complex)
    flat = ops.reshape(-1, *ops.shape[-3:])
    lo = eigvalsh_stack(flat)[..., 0]
    excess = eigvalsh_stack(flat.sum(axis=1) - np.eye(ops.shape[-1]))[..., -1]
    neg = lo < -tol_eig
    bad = neg.any(axis=1) | (excess > tol_eig)
    if bad.any():
        i = int(np.argmax(bad))
        if neg[i].any():
            k = int(np.argmax(neg[i]))
            raise NotPositive(
                f"decoding operator {k} has eigenvalue {lo[i, k]:.3e} < -{tol_eig:.1e}"
            )
        raise NotPositive(
            f"decoder sum exceeds the identity by {excess[i]:.3e} > {tol_eig:.1e}"
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
