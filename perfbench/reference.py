"""Independent reference values the benchmark checks job outputs against.

Nothing here calls the code path under test: the informed-jammer error is
recomputed by tensor contraction from grouped operators built here, the
typical-subspace mass by summing binomial/multinomial terms, and the CLI
closed forms come from the paper's formulas.  The maxmin check uses the
fixed-channel Holevo capacity, a separate algorithm from the max-min solver.
"""

import string
from itertools import combinations
from math import comb, log2

import numpy as np


def binary_entropy(q):
    return -sum(v * log2(v) for v in (q, 1.0 - q) if v > 0.0)


# ---------------------------------------------------------------------------
# exact informed-jammer error by contraction
# ---------------------------------------------------------------------------

def _success_table(states, xs, g):
    """tr(rho(x_1, s_1) (x) ... (x) rho(x_n, s_n) G) for every state word s.

    states (X, S, d, d); returns an array with one |S|-sized axis per site.
    """
    n = len(xs)
    d = states.shape[-1]
    letters = iter(string.ascii_letters)
    a = [next(letters) for _ in range(n)]
    b = [next(letters) for _ in range(n)]
    s = [next(letters) for _ in range(n)]
    # tr(rho G) = sum_{a,b} rho[a, b] G[b, a]
    terms = [f"{s[i]}{a[i]}{b[i]}" for i in range(n)]
    spec = ",".join(terms) + "," + "".join(b) + "".join(a) + "->" + "".join(s)
    ops = [states[x] for x in xs] + [g.reshape([d] * (2 * n))]
    return np.real(np.einsum(spec, *ops, optimize="greedy"))


def informed_error(states, grouped):
    """1 - sum over codewords of the minimum grouped success over state words."""
    success = sum(float(_success_table(states, xs, g).min()) for xs, g in grouped.items())
    return min(max(1.0 - success, 0.0), 1.0)


def _add(grouped, xs, op):
    grouped[xs] = grouped[xs] + op if xs in grouped else op.copy()


# The grouped_* builders map each distinct codeword to its accumulated
# weighted decoder.  Input letters must be the channel's indices 0..|X|-1.

def grouped_deterministic(code):
    out = {}
    j_n = len(code.codebook)
    for j, word in enumerate(code.codebook):
        _add(out, word, code.decoders[j] / j_n)
    return out


def grouped_random(code):
    out = {}
    k_n, j_n = len(code.codes), code.codes[0].num_messages
    for det in code.codes:
        for j, word in enumerate(det.codebook):
            _add(out, word, det.decoders[j] / (j_n * k_n))
    return out


def grouped_correlation(code, src):
    """Source-weighted decoders per codeword of a correlation code."""
    joint = np.asarray(src.joint)
    vp_idx = {c: i for i, c in enumerate(src.v_prime_alphabet)}
    v_idx = {c: i for i, c in enumerate(src.v_alphabet)}
    u_words = np.array([[vp_idx[c] for c in u] for u in code.v_prime_words])
    v_words = np.array([[v_idx[c] for c in v] for v in code.v_words])
    # P(u, v) = prod_t joint[u_t, v_t]
    pj = np.prod(joint[u_words[:, None, :], v_words[None, :, :]], axis=-1)
    j_n = len(code.encoders[0])
    out = {}
    for ui, row in enumerate(code.encoders):
        for j, word in enumerate(row):
            op = np.tensordot(pj[ui], code.decoders[:, j], axes=1) / j_n
            _add(out, tuple(word), op)
    return out


# ---------------------------------------------------------------------------
# max-min value: a two-sided bracket around a candidate saddle point
# ---------------------------------------------------------------------------

def _log2m(mats):
    lam, vec = np.linalg.eigh(mats)
    return (vec * np.log2(np.clip(lam, 1e-300, None))[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def maxmin_bracket(states, p, q):
    """(lower, upper) with lower <= max_P min_Q chi(P, W_Q) <= upper.

    states (X, S, d, d); p (X,) an input distribution; q (X, S) a kernel.
    Upper: the max-min value is at most C_Holevo(W_q), which is at most
    max_x D(rho_x || rho_bar) for any ensemble average rho_bar.  Lower:
    chi(p, W_Q) is convex in Q, so its linearisation at q, minimised over
    the kernel simplex (one vertex per row), bounds min_Q chi(p, W_Q) from
    below.  Both meet when (p, q) is a saddle point.  Needs full-rank
    rho_x, which the benchmark's Wishart draws give.
    """
    rho_x = np.einsum("xs,xsij->xij", q, states)
    rho_bar = np.einsum("x,xij->ij", p, rho_x)
    diff = _log2m(rho_x) - _log2m(rho_bar)[None]
    d_x = np.real(np.einsum("xij,xji->x", rho_x, diff))
    chi = float(p @ d_x)
    grad = p[:, None] * np.real(np.einsum("xsij,xji->xs", states, diff))
    lower = chi + float(np.sum(grad.min(axis=1) - np.sum(grad * q, axis=1)))
    return lower, float(d_x.max())


# ---------------------------------------------------------------------------
# typical-subspace mass
# ---------------------------------------------------------------------------

def _compositions(n, k):
    """All k-part compositions of n (stars and bars)."""
    for bars in combinations(range(n + k - 1), k - 1):
        prev, parts = -1, []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(n + k - 2 - prev)
        yield parts


def typical_mass(spec, n, alpha, guard=1e-12, support_floor=1e-15):
    """Mass of the eigenvalue-label typical set of a spectrum at block length n."""
    total = 0.0
    for c in _compositions(n, len(spec)):
        if any(ci > 0 and lam < support_floor for ci, lam in zip(c, spec)):
            continue
        if any(abs(ci / n - lam) > alpha + guard for ci, lam in zip(c, spec)):
            continue
        mult, rem = 1, n
        for ci in c:
            mult *= comb(rem, ci)
            rem -= ci
        prob = 1.0
        for ci, lam in zip(c, spec):
            if ci:
                prob *= lam ** ci
        total += mult * prob
    return total


def relative_gap(got, want):
    """|got - want| relative to max(1, |want|); infinite values must match exactly."""
    if got == want:
        return 0.0
    if not (np.isfinite(got) and np.isfinite(want)):
        return 1.0
    return abs(got - want) / max(1.0, abs(want))


def mass_exponent(mass, n):
    """The ``lhs`` of a mass bound row: -log2(1 - mass) / n."""
    gap = 1.0 - mass
    return float("inf") if gap <= 1e-15 else -log2(gap) / n


# ---------------------------------------------------------------------------
# separation certificate
# ---------------------------------------------------------------------------

def certificate_error(m0, m1, margin, distance):
    """Distance from a valid separating measurement; 0.0 when sound.

    Requires margin > 0, margin <= distance / 2 (Cauchy-Schwarz for a unit
    operator), m0 + m1 = I and m1 in [0, I].
    """
    err = 0.0 if margin > 0.0 else 1.0
    err = max(err, margin - distance / 2.0)
    eye = np.eye(m0.shape[0])
    err = max(err, float(np.abs(m0 + m1 - eye).max()))
    lam = np.linalg.eigvalsh((m1 + m1.conj().T) / 2.0)
    err = max(err, -float(lam[0]), float(lam[-1]) - 1.0)
    return max(err, 0.0)
