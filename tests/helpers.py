"""Shared instance builders for the test suite."""

import numpy as np

from avcqc import Avcqc, CorrelatedSource, CqChannel

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
