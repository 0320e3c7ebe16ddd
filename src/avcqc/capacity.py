"""Holevo quantity and capacity formulas for informed-jammer channels.

The central object is the max-min value

    max over input distributions P of
    min over memoryless jamming kernels Q of  chi(P, averaged channel)

together with the correlation-assisted common-randomness capacities built
on top of it.  chi is convex in the kernel (joint convexity of the
relative entropy) and concave in the input distribution, so the max-min
value is a saddle value (Sion's minimax theorem).  The solver ascends
phi(P) = min_Q chi(P, W_Q), which is concave, along one trajectory from the
uniform start: every candidate P gets a projected Newton descent on the
kernel, and P takes projected Newton steps on phi.  It brackets the value
after the first inner descent and after every outer step: a Frank-Wolfe
lower bound from the convexity in the kernel, and the Holevo upper bound
max_x D(rho_x || rho_bar).  A bracket at most Tolerances.maxmin_bracket
wide (default 1e-6) ends the solve, and its width is the certified gap at
every alphabet size.  A trajectory that stops short of that width (no
Newton candidate accepted, or the outer step budget spent) returns the
bracket at its last point, which still holds the value.  The
inner minimum alone (``min_chi_over_jammer``) is one kernel descent from the
uniform kernel, for the same convexity; the Holevo capacity of a fixed
channel (``holevo_capacity``) is the solve with one jammer letter.

Both Newton steps take their second derivatives from the eigendecompositions
the descent already caches for chi and its gradients.  For a state
sigma = sum_i l_i |i><i| and directions A, B,

    d^2 S(sigma) / dA dB = -(1/ln 2) sum_ij A~_ij B~_ji Lambda_ij,

with A~ = V^dag A V in sigma's eigenbasis and the Daleckii-Krein divided
differences Lambda_ij = (ln l_i - ln l_j) / (l_i - l_j), and 1 / l_i where
the eigenvalues coincide.  The eigenvalues are floored at 1e-18, as for the
matrix logarithm of the gradient.  The kernel block chi_qq gives the inner
step.  The outer step needs the Hessian of phi, which by the envelope
theorem is the Schur complement chi_pp - chi_pq chi_qq^-1 chi_qp at the
inner minimizer, over the free kernel entries and under their row
constraints; chi_pp and chi_pq come from rho_bar's spectrum the same way.
Near the saddle the outer step converges quadratically: the bracket closes
in a few steps at 1e-6 and at 1e-10 alike.  The kernel descent stops once
its Frank-Wolfe gap is at most min(1e-9, width / 1000).  The bracket's
lower end is lo = chi - gap, so that stop leaves the width to the outer
ascent; a tighter inner stop would buy the bracket nothing.

The upper end needs no support-aware relative entropy.  Flooring rho_bar's
spectrum at 1e-18 replaces rho_bar by a full-rank positive operator sigma,
and hi = max_x D(rho_x || sigma).  C_Holevo(W) <= max_x D(W_x || tau) holds
for every state tau, so with tau = sigma / tr sigma the value is at most
hi + log2 tr sigma <= hi + d 1e-18 / ln 2, far inside the 1e-12 rounding
allowance of the returned bracket.

The large-correlation common-randomness capacity is F(C*), where
F(R) = max I(U;V') over U - V' - V with I(U;V') - I(U;V) <= R is concave
and nondecreasing, so F(lo) <= F(C*) <= F(hi) on the max-min bracket.
F(0) = H(K), K the Gacs-Korner common part (double Markov lemma).  For
binary V' and R > 0, weak duality gives F(R) <= lam R + h_lam(pi0) -
conv h_lam(pi0) for every lam >= 0, with h_lam(pi) = (1 - lam) H(pi) +
lam H(pi T) - lam <pi, H(T)> over the laws pi of V' (T = P(V | V')),
pi0 = P(V') and conv the lower convex envelope.  For lam >= 1, chords of
the concave lam H(pi T) and tangents of the convex (1 - lam) H(pi) give a
piecewise-linear minorant, so the bound stays certified; on a grid uniform
in theta, pi = sin(theta)^2, its error is about
(2 lam - 1) (pi / (2 _DUAL_CELLS))^2 / (2 ln 2) <= (2 lam - 1) 1.1e-7 in
every cell.  Bisection on lam (subgradient R - I(U;V'|V)) gives the upper
end at hi; the supporting decompositions on either side of the multiplier,
time-shared to meet lo, give a feasible witness for the lower end.

The max-min solver draws no random numbers.  Elsewhere all randomness
flows from a single seed; identical seeds give identical results bit for
bit.
"""

from dataclasses import dataclass
import numpy as np

from .channels import JammerKernel
from .config import DEFAULT_TOL, with_overrides
from .errors import AlphabetMismatch, InvalidArgument, NonBinarySource
from .errors import ProfileOutOfRange, SolverDiverged
from .geometry import _STEP_FLOOR, _free_entries, _kkt_matrix, _solve_newton, project_simplex_rows
from .operators import (
    eigh_stack,
    eigvalsh_stack,
    entropy_from_eigenvalues,
    validate_probability_vector,
)

LN2 = np.log(2.0)
_LOG_FLOOR = 1e-18
# eigenvalues of the solver's mixtures in [-_NEG_CLAMP, 0) are rounding and
# count as 0 in entropies; anything more negative raises NotPositive
_NEG_CLAMP = 1e-9
# a kernel step is accepted when chi rises by at most this: rounding in chi
# computed from spectra must not stall the descent
_DESCENT_SLACK = 1e-15
# chi lies in the bracket taken at its own point up to the rounding of the
# spectra (|X| = 1 gives hi = -1.1e-16 below chi = 0); the returned bracket
# is widened to hold the value by at most this, and a larger miss raises.
# A requested bracket width (Tolerances.maxmin_bracket) must exceed it
_BRACKET_ROUNDING = 1e-12
# holevo_capacity runs the max-min solver to a bracket this wide
_HOLEVO_BRACKET = 1e-9
# the kernel descent ends once its Frank-Wolfe gap is at most this, or at
# most _KERNEL_SHARE of the requested bracket width if that is smaller:
# chi is then within it of the inner minimum, and lo = chi - gap leaves
# the width to the outer ascent
_KERNEL_GAP = 1e-9
_KERNEL_SHARE = 1e-3
# step halvings tried on a Newton direction before the gradient fallback
_NEWTON_HALVINGS = 20
# the outer Newton step holds at 0 the letters below the maximum of d_x
# whose p_x is at most this, or at most the distance from a stationary point
_HOLD_CAP = 1e-3
# probabilities in [-this, 0) are rounding and count as 0 in the CR entropies
_PROB_CLAMP = 1e-12
# cells of the graded grid on which the binary CR dual builds its minorant
_DUAL_CELLS = 4096
# the CR dual's multiplier is bisected to an interval this narrow, relative to it
_LAMBDA_RTOL = 1e-12


# ---------------------------------------------------------------------------
# batched primitives
# ---------------------------------------------------------------------------

def _log2_from_spectra(w, v):
    """Matrix log base 2 from a spectral decomposition (eigenvalue floor)."""
    lw = np.log2(np.clip(w, _LOG_FLOOR, None))
    return (v * lw[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _entropy_stack(mats):
    return entropy_from_eigenvalues(eigvalsh_stack(mats), floor=_NEG_CLAMP)


def _mixed_states(states, q):
    """states (X,S,d,d), q (...,X,S) -> per-input averaged states (...,X,d,d)."""
    return np.einsum("...xs,xsij->...xij", q, states)


def _mixture_spectra(p, states, q):
    """One batched decomposition of the mixtures rho_x then rho_bar: (..., X+1, d[, d])."""
    rho_x = _mixed_states(states, q)
    rho_bar = np.einsum("...x,...xij->...ij", p, rho_x)
    return eigh_stack(np.concatenate([rho_x, rho_bar[..., None, :, :]], axis=-3))


def _chi_from_spectra(p, w):
    s = entropy_from_eigenvalues(w, floor=_NEG_CLAMP)
    return s[..., -1] - np.einsum("...x,...x->...", p, s[..., :-1])


def _log_ratio_traces(states, spec):
    """tr W_xs (log2 rho_x - log2 rho_bar), (..., X, S): the kernel gradient of chi per unit p_x."""
    logs = _log2_from_spectra(*spec)
    diff = logs[..., :-1, :, :] - logs[..., -1:, :, :]
    return np.real(np.einsum("xsij,...xji->...xs", states, diff))


def _grad_q(p, states, spec):
    """Gradient of chi with respect to the kernel entries, from the mixture spectra."""
    return p[..., None] * _log_ratio_traces(states, spec)


def _grad_p(p, states, q, spec):
    """Per-letter relative entropy D(rho_x || rho_bar): supergradient of chi in p."""
    w, v = spec
    lb = _log2_from_spectra(w[..., -1, :], v[..., -1, :, :])
    cross = np.real(np.einsum("...xij,...ji->...x", _mixed_states(states, q), lb))
    # 0 - S - cross, not -S - cross: a pure rho_x inside rho_bar's support gives +0.0
    return 0.0 - entropy_from_eigenvalues(w[..., :-1, :], floor=_NEG_CLAMP) - cross


# ---------------------------------------------------------------------------
# Holevo quantity and fixed-channel capacity
# ---------------------------------------------------------------------------

def holevo_chi(p, w, tol=DEFAULT_TOL):
    """chi(p; W) = S(sum_x p(x) W(x)) - sum_x p(x) S(W(x)) in bits."""
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    rho_bar = np.einsum("x,xij->ij", pv, w.states)
    val = float(_entropy_stack(rho_bar) - pv @ _entropy_stack(w.states))
    return max(val, 0.0)


def holevo_capacity(w):
    """Holevo capacity of a fixed cq channel: the max-min solver on its single-state AVC.

    Returns (capacity, optimal input distribution).  With one jammer letter
    the kernel is fixed, the inner minimum is chi itself and the outer
    Newton step of ``_ascend`` is a Newton step of Blahut-Arimoto on p.  The
    solve is that one trajectory from the uniform p.  It keeps the standard
    sandwich chi(p) <= C <= max_x D(W(x) || ensemble average) and ends once
    it is at most _HOLEVO_BRACKET wide, after 400 outer steps, or when no
    Newton step is accepted; the capacity returned is chi at the returned p.
    """
    tol = with_overrides(DEFAULT_TOL, maxmin_bracket=_HOLEVO_BRACKET)
    value, p, _, _, _ = _saddle_solve(w.states[:, None], outer_iter=400, inner_iter=120, tol=tol)
    return value, p


# ---------------------------------------------------------------------------
# inner minimization over jamming kernels
# ---------------------------------------------------------------------------

def _dk_weights(w):
    """Daleckii-Krein divided differences of ln at a spectrum: (..., d, d).

    Lambda_ij = (ln l_i - ln l_j) / (l_i - l_j), and 1 / l_i where the two
    coincide, with the eigenvalues floored at _LOG_FLOOR as in
    ``_log2_from_spectra``.  Written as log1p(x) / x / b with b the smaller
    eigenvalue and x = (a - b) / b, which keeps its digits when a and b are
    close.
    """
    lam = np.clip(w, _LOG_FLOOR, None)
    a = np.maximum(lam[..., :, None], lam[..., None, :])
    b = np.minimum(lam[..., :, None], lam[..., None, :])
    x = (a - b) / b
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.log1p(safe) / safe, 1.0) / b


def _kernel_hessian(p, states, spec):
    """Hessian of chi in the kernel entries, (X*S, X*S), from the mixture spectra.

    For a direction A at a state sigma with eigenbasis V,
    d^2 S(sigma) / dA dB = -(1/ln 2) sum_ij A~_ij B~_ji Lambda_ij with
    A~ = V^dag A V and Lambda from ``_dk_weights``.  rho_bar moves with every
    entry (weight p_x) and rho_x with its own row only, so
    H[(x,s),(x',s')] = (delta_xx' p_x K_x(W_xs, W_xs') - p_x p_x' K_bar(W_xs, W_x's')) / ln 2.
    """
    w, v = spec
    nx, ns, d = states.shape[0], states.shape[1], states.shape[-1]
    lam = _dk_weights(w).reshape(nx + 1, d * d)
    vh = v.conj().swapaxes(-1, -2)
    bar = (vh[-1] @ states @ v[-1]).reshape(nx * ns, d * d)
    h = -np.outer(np.repeat(p, ns), np.repeat(p, ns)) * np.real((bar * lam[-1]) @ bar.conj().T)
    own = (vh[:-1, None] @ states @ v[:-1, None]).reshape(nx, ns, d * d)
    k_x = np.real(np.einsum("xsk,xk,xtk->xst", own, lam[:-1], own.conj()))
    blocks = h.reshape(nx, ns, nx, ns)
    rows = np.arange(nx)
    blocks[rows, :, rows, :] += p[:, None, None] * k_x
    return h / LN2


def _kernel_kkt(p, states, q, g, spec):
    """KKT matrix of the kernel's Newton system, (F+X, F+X), and its F free entries (mask).

    ``geometry._free_entries`` picks the free entries (a free rounding
    residue at 0 would send the step into the fallback); they carry one
    zero-sum constraint per row.  The shift of ``geometry._kkt_matrix``
    keeps the system solvable where chi is flat in the kernel, as with a
    duplicated jammer letter.
    """
    nx, ns = q.shape
    free = _free_entries(q, g).ravel()
    h = _kernel_hessian(p, states, spec)[np.ix_(free, free)]
    return _kkt_matrix(h, np.repeat(np.arange(nx), ns)[free], nx), free


def _newton_direction(p, states, q, g, spec):
    """Projected Newton direction on the kernel, or None if its system is singular or overflows.

    On the free entries of ``_kernel_kkt`` the quadratic model of chi is
    minimized under one zero-sum constraint per row.
    """
    kkt, free = _kernel_kkt(p, states, q, g, spec)
    nf = int(free.sum())
    sol = _solve_newton(kkt, np.concatenate([-g.ravel()[free], np.zeros(q.shape[0])]))
    if sol is None:
        return None
    step = np.zeros(q.size)
    step[free] = sol[:nf]
    return step.reshape(q.shape)


def _descend_kernel(states, p, q, max_iter, gap_stop=_KERNEL_GAP):
    """Projected Newton descent of chi over one jamming kernel q (X, S) at fixed p.

    Each step solves the Newton system of ``_newton_direction`` from the
    Hessian of the cached spectra (no eigendecomposition beyond the one per
    candidate) and tries project_simplex_rows(q + t D) for t = 1, 1/2, ...,
    accepting the first candidate at which chi does not rise beyond
    rounding.  If none is accepted, a projected-gradient step with
    backtracking is tried instead.  The descent ends once the Frank-Wolfe
    gap is at most gap_stop, when neither step finds a new kernel at
    which chi does not rise (chi has reached its rounding floor), or after
    max_iter steps.  On |S| = 1 the gap is 0 and no step is taken.

    Returns chi, the kernel, the mixture spectra (w, v) as laid out by
    ``_mixture_spectra`` and the Frank-Wolfe gap, all at the returned kernel.
    """
    q = np.array(q, dtype=float)
    spec = _mixture_spectra(p, states, q)
    f = _chi_from_spectra(p, spec[0])
    if not np.isfinite(f):
        raise SolverDiverged("non-finite objective at the initial kernel")
    eta = 1.0
    for step in range(max_iter + 1):
        g = _grad_q(p, states, spec)
        # chi is convex in q, so chi at q exceeds the inner minimum by at most
        # this Frank-Wolfe gap: the linearisation's drop to its best vertex
        gap = float(np.sum(g * q) - np.sum(g.min(axis=-1)))
        if gap <= gap_stop or step == max_iter:
            break
        found = None
        direction = _newton_direction(p, states, q, g, spec)
        if direction is not None:
            t = 1.0
            for _try in range(_NEWTON_HALVINGS):
                found = _try_kernel(states, p, q, f, q + t * direction)
                if found is not None:
                    break
                t /= 2.0
        if found is None:
            while eta >= _STEP_FLOOR:
                found = _try_kernel(states, p, q, f, q - eta * g)
                if found is not None:
                    eta = min(eta * 1.25, 1e3)
                    break
                eta /= 2.0
        if found is None:
            break
        f, q, spec = found
    if not np.isfinite(f):
        raise SolverDiverged("non-finite objective during kernel descent")
    return f, q, spec, gap


def _try_kernel(states, p, q, f, target):
    """(chi, kernel, spectra) at the projection of target, if chi does not rise there."""
    cand = project_simplex_rows(target)
    if np.array_equal(cand, q):
        return None
    spec = _mixture_spectra(p, states, cand)
    f_cand = _chi_from_spectra(p, spec[0])
    if f_cand <= f + _DESCENT_SLACK:
        return f_cand, cand, spec
    return None


def min_chi_over_jammer(w, p, tol=DEFAULT_TOL):
    """Minimize chi(p, averaged channel) over memoryless jamming kernels.

    Returns (value, JammerKernel).  chi(p, W_Q) is convex in Q (joint
    convexity of the relative entropy), so every local minimum over the
    kernel polytope is global and one descent from the uniform kernel finds
    it: seeded restarts could only find the same minimum again.  The descent
    (``_descend_kernel``) takes projected Newton steps with the Hessian of
    chi from the cached spectra (the Daleckii-Krein formula in the module
    docstring) and stops once its Frank-Wolfe gap is at most _KERNEL_GAP,
    so the value lies within 1e-9 of the minimum.
    """
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    f, q, _, _ = _descend_kernel(w.states, pv, np.full((nx, ns), 1.0 / ns), max_iter=2000)
    return float(max(f, 0.0)), JammerKernel(w.x_alphabet, w.s_alphabet, q)


# ---------------------------------------------------------------------------
# the max-min capacity solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CapacityResult:
    value: float
    argmax_p: np.ndarray
    argmin_q: JammerKernel
    solver_trace: tuple
    certified_gap: float          # hi - lo of the bracket
    bracket: tuple                # (lo, hi) around the max-min value at the returned point


def _input_hessian(p, states, q, spec):
    """chi_pp (X, X) and chi_pq (X, X*S) at (p, q), from the mixture spectra.

    In rho_bar's eigenbasis V, with A~ = V^dag A V and Lambda from
    ``_dk_weights`` at rho_bar's spectrum,

        chi_pp[x, x']       = -(1/ln 2) sum_ij (rho~_x)_ij (rho~_x')_ji Lambda_ij,
        chi_pq[x, (x', s')] = delta_xx' tr W_x's' (log2 rho_x - log2 rho_bar)
                              - (p_x' / ln 2) sum_ij (rho~_x)_ij (W~_x's')_ji Lambda_ij:

    p enters chi through rho_bar and linearly through -sum_x p_x S(rho_x),
    and the kernel row x' moves rho_x' and, with weight p_x', rho_bar.
    """
    w, v = spec
    nx, ns, d = states.shape[0], states.shape[1], states.shape[-1]
    lam = _dk_weights(w[-1]).ravel()
    bar = (v[-1].conj().T @ states @ v[-1]).reshape(nx * ns, d * d)
    rho = np.einsum("xs,xsk->xk", q, bar.reshape(nx, ns, d * d))
    weighted = rho * lam
    chi_pp = -np.real(weighted @ rho.conj().T) / LN2
    chi_pq = -np.real(weighted @ bar.conj().T) * np.repeat(p, ns) / LN2
    rows = np.arange(nx)
    chi_pq.reshape(nx, nx, ns)[rows, rows] += _log_ratio_traces(states, spec)
    return chi_pp, chi_pq


def _envelope_hessian(p, states, q, spec):
    """Hessian of phi(p) = min_q chi(p, q) at an inner minimizer q, (X, X), or None.

    The Schur complement chi_pp - chi_pq chi_qq^-1 chi_qp over the free
    kernel entries of ``_kernel_kkt``, under their row constraints: the
    kernel's response dq/dp solves the kernel's KKT system with the
    right-hand sides -chi_qp, and phi'' = chi_pp + chi_pq dq/dp.  The
    response sums to zero in each kernel row, so per-row constants in
    chi_pq drop out.  None if the kernel's system is singular.
    """
    chi_pp, chi_pq = _input_hessian(p, states, q, spec)
    kkt, free = _kernel_kkt(p, states, q, _grad_q(p, states, spec), spec)
    nf = int(free.sum())
    rhs = np.zeros((kkt.shape[0], p.size))
    rhs[:nf] = -chi_pq[:, free].T
    sol = _solve_newton(kkt, rhs)
    if sol is None:
        return None
    return chi_pp + chi_pq[:, free] @ sol[:nf]


def _input_direction(p, states, q, d_x, spec):
    """Projected Newton direction on p for phi(p) = min_q chi(p, q), or None.

    Letters whose d_x is below the maximum and whose p_x is at most
    min(_HOLD_CAP, |p - project(p + d)|_1) are held: the step takes them
    to 0.  The bound shrinks with the distance from a stationary point
    (the epsilon-active set of Bertsekas' projected Newton method), so near
    the saddle only letters at 0 are held, while far from it a letter about
    to leave the support is not left to the Newton model, where a nearly
    duplicated letter makes it steer the whole step.  On the rest, the
    quadratic model of phi with the envelope gradient d_x and the Hessian
    of ``_envelope_hessian`` is maximized under sum delta = 0 (the same
    shifted KKT system as the kernel's).  The direction is scaled to
    entries of at most 1, the width of the simplex: a nearly flat model
    would otherwise put every trial step far outside it.
    """
    h = _envelope_hessian(p, states, q, spec)
    if h is None:
        return None
    floor = min(_HOLD_CAP, float(np.sum(np.abs(p - project_simplex_rows(p + d_x)))))
    free = (p > max(floor, _STEP_FLOOR)) | (d_x == d_x.max())
    held = np.where(free, 0.0, -p)
    kkt = _kkt_matrix(-h[np.ix_(free, free)], np.zeros(int(free.sum()), dtype=int), 1)
    rhs = np.concatenate([d_x[free] + h[free] @ held, [-held.sum()]])
    sol = _solve_newton(kkt, rhs)
    if sol is None:
        return None
    step = held
    step[free] = sol[:-1]
    return step / max(1.0, np.max(np.abs(step)))


def _newton_ascent(states, p, q, f, d_x, spec, inner_iter, gap_stop):
    """(p, inner descent) at the first accepted candidate on the Newton direction, or None.

    Tries project_simplex_rows(p + t delta) for t = 1, 1/2, ..., each with
    an inner descent warm-started from q, and accepts the first at which the
    inner minimum falls by at most gap_stop.  Both inner minima are known
    only to the kernel descent's Frank-Wolfe stop gap_stop, so a smaller
    fall is no loss of the concave objective.  Compared more finely, every
    candidate was rejected on draws whose phi is nearly flat between two
    input letters 1e-6 apart, and their brackets stayed open.
    """
    direction = _input_direction(p, states, q, d_x, spec)
    if direction is None:
        return None
    t = 1.0
    for _try in range(_NEWTON_HALVINGS):
        cand_p = project_simplex_rows(p + t * direction)
        if np.array_equal(cand_p, p):
            return None
        cand = _descend_kernel(states, cand_p, q, inner_iter, gap_stop)
        if cand[0] >= f - gap_stop:
            return cand_p, cand
        t /= 2.0
    return None


def _ascend(states, outer_iter, inner_iter, tol):
    """Newton ascent on p from the uniform (p, q), stopped by its saddle bracket.

    The objective is phi(p) = min_q chi(p, q), concave in p.  Its envelope
    gradient is the per-letter relative entropy d_x at the inner minimizer,
    and its Hessian the Schur complement of ``_envelope_hessian``, both
    from the spectra the inner descent cached.  Each outer step is the
    projected Newton step of ``_newton_ascent``.  Every candidate p gets a
    projected Newton descent on the kernel (``_descend_kernel``), which ends
    on a Frank-Wolfe gap of at most
    min(_KERNEL_GAP, _KERNEL_SHARE * tol.maxmin_bracket).  The saddle
    bracket is taken after the initial inner descent and after every outer
    step; its lower end is chi minus the kernel's Frank-Wolfe gap, so the
    gap stop costs the bracket at most a thousandth of its width.  The
    ascent ends once the bracket is at most tol.maxmin_bracket wide, after
    outer_iter steps, or when no Newton candidate is accepted, and returns
    the bracket at that point.

    Returns chi at the returned point, its p and kernel, its bracket
    (lo, hi) and the objective trace.
    """
    width = tol.maxmin_bracket
    gap_stop = min(_KERNEL_GAP, width * _KERNEL_SHARE)
    nx, ns = states.shape[:2]
    p = np.full(nx, 1.0 / nx)
    f, q, spec, gap = _descend_kernel(states, p, np.full((nx, ns), 1.0 / ns), 400, gap_stop)
    trace = [float(f)]
    for step in range(outer_iter + 1):
        d_x = _grad_p(p, states, q, spec)
        # chi(p, W_Q) is convex in Q, so chi minus the kernel's Frank-Wolfe
        # gap bounds min_Q chi(p, W_Q), hence the max-min value, from below;
        # the value is at most C_Holevo(W_q) <= max_x D(rho_x || rho_bar),
        # the largest entry of d_x (see the module docstring for the floor
        # on rho_bar's spectrum).  Both meet at a saddle point, and both
        # come from the cached spectra, so the bracket costs no LAPACK call
        lo, hi = float(f - gap), float(d_x.max())
        if hi - lo <= width or step == outer_iter:
            break
        found = _newton_ascent(states, p, q, f, d_x, spec, inner_iter, gap_stop)
        if found is None:
            break
        p, (f, q, spec, gap) = found
        trace.append(float(f))
    return f, p, q, (lo, hi), trace


def _saddle_solve(states, outer_iter, inner_iter, tol):
    """(value, p, q, trace, (lo, hi)) of the max-min solve on states (X, S, d, d).

    One ``_ascend`` trajectory; its bracket is widened to hold the value by
    at most _BRACKET_ROUNDING.
    """
    if not tol.maxmin_bracket > _BRACKET_ROUNDING:
        raise InvalidArgument(
            f"maxmin_bracket must exceed the bracket rounding {_BRACKET_ROUNDING}, "
            f"got {tol.maxmin_bracket!r}"
        )
    chi, p, q, (lo, hi), trace = _ascend(states, outer_iter, inner_iter, tol)
    value = float(min(max(chi, 0.0), np.log2(states.shape[-1])))
    if not lo - _BRACKET_ROUNDING <= value <= hi + _BRACKET_ROUNDING:
        raise SolverDiverged(f"value {value!r} outside its bracket ({lo!r}, {hi!r})")
    return value, p, q, tuple(trace), (min(lo, value), max(hi, value))


def capacity_informed_jammer(
    w,
    seed=None,
    restarts=None,
    outer_iter=400,
    inner_iter=120,
    tol=DEFAULT_TOL,
    certify=None,
):
    """Correlation-assisted capacity formula: max over P of min over Q of chi.

    chi(P, W_Q) is concave in P and convex in Q (joint convexity of the
    relative entropy), so by Sion's minimax theorem the max-min value is a
    saddle value and one ascent trajectory reaches it.  The solver runs
    ``_ascend`` once from the uniform (P, Q) start and brackets the value
    at the point it reaches; a bracket at most tol.maxmin_bracket wide ends
    the solve, and a width at most _BRACKET_ROUNDING raises InvalidArgument.
    ``_ascend`` checks the bracket after its first inner descent and after
    every outer step, so a start that is already a saddle point costs one
    inner descent.  A trajectory that stops with its bracket open (after
    outer_iter steps, or with no Newton candidate accepted) still returns a
    bracket that holds the value.  ``solver_trace`` is the objective after
    the first inner descent and after every outer step, and ``bracket`` is
    (lo, hi) at the returned point.  ``certified_gap`` is hi - lo, at every
    alphabet size; the value lies within it of the max-min value.

    The solve draws no random numbers and has one trajectory, so ``seed``,
    ``restarts`` and ``certify`` change nothing.  They are still accepted
    because the benchmark workloads in ``perfbench/`` pass them, and a call
    they made that was refused would fail every workload run.
    """
    value, p, q, trace, (lo, hi) = _saddle_solve(w.states, outer_iter, inner_iter, tol)
    return CapacityResult(
        value=value,
        argmax_p=p,
        argmin_q=JammerKernel(w.x_alphabet, w.s_alphabet, q),
        solver_trace=trace,
        certified_gap=hi - lo,
        bracket=(lo, hi),
    )


# ---------------------------------------------------------------------------
# common-randomness capacities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrCapacityResult:
    value: float
    case_tag: str                 # "small_correlation" | "large_correlation"
    aux_channel: np.ndarray | None  # rows P(U | V') for the large-correlation witness
    maxmin_value: float
    source_mi: float
    bracket: tuple                # (lo, hi) around the CR capacity


def _entropy_rows(p):
    return entropy_from_eigenvalues(p, floor=_PROB_CLAMP)


def _aux_objective(joint_vv, k_rows):
    """I(U;V') and I(U;V) for stacked auxiliary channels k_rows (..., V', U)."""
    def mi(j):  # I(A;B) of stacked joints (..., A, B)
        flat = j.reshape(*j.shape[:-2], -1)
        return _entropy_rows(j.sum(axis=-1)) + _entropy_rows(j.sum(axis=-2)) - _entropy_rows(flat)

    j_uvp = joint_vv.sum(axis=1)[:, None] * k_rows  # (..., V', U)
    return mi(j_uvp), mi(np.einsum("vw,...vu->...uw", joint_vv, k_rows))


def _gacs_korner(joint):
    """(H(K), P(K | V')) for K the Gacs-Korner common part of (V', V): the
    union-find components of the graph joining v', v where joint[v', v] > 0."""
    nvp = joint.shape[0]
    parent = list(range(sum(joint.shape)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in zip(*np.nonzero(joint)):
        parent[root(a)] = root(nvp + b)
    roots = np.array([root(a) for a in range(nvp)])
    aux = (roots[:, None] == np.unique(roots)).astype(float)
    mass = joint.sum(axis=1) @ aux
    return float(_entropy_rows(mass / mass.sum())), aux


def _dual_tables(joint):
    """Vertices (x, a, k) of the binary dual's minorant left and right of pi0; pi0, H(V'), H(V'|V).

    x = P(V' = second letter).  The vertices are the grid nodes and each
    cell's crossing of the tangents of H at its ends (the end cells keep
    their inner tangent); the minorant of h_lam, lam >= 1, is a - lam * k
    at a vertex and linear between them.
    """
    pvp = joint.sum(axis=1)
    t = joint / pvp[:, None]
    h_t = _entropy_rows(t)
    x = np.sin(np.linspace(0.0, np.pi / 2, _DUAL_CELLS + 1)) ** 2
    h = _entropy_rows(np.stack([1.0 - x, x], axis=-1))
    c = _entropy_rows(np.outer(1.0 - x, t[0]) + np.outer(x, t[1]))
    s = np.log2(1.0 - x[1:-1]) - np.log2(x[1:-1])  # H' at the interior nodes
    xa, xb = x[1:-2], x[2:-1]
    m = np.clip(xa + (h[2:-1] - h[1:-2] - s[1:] * (xb - xa)) / (s[:-1] - s[1:]), xa, xb)
    tangent = [[h[1] - s[0] * x[1]], h[1:-2] + s[:-1] * (m - xa), [h[-2] + s[-1] * (1.0 - x[-2])]]
    m = np.concatenate([[0.0], m, [1.0]])
    chord = c[:-1] + (c[1:] - c[:-1]) * (m - x[:-1]) / (x[1:] - x[:-1])
    xv, a = np.concatenate([x, m]), np.concatenate([h] + tangent)
    k = a + (1.0 - xv) * h_t[0] + xv * h_t[1] - np.concatenate([c, chord])
    pi0 = pvp[1] / pvp.sum()
    h_cond = _entropy_rows(joint.ravel()) - _entropy_rows(joint.sum(axis=0))
    sides = [(xv[side], a[side], k[side]) for side in (xv <= pi0, xv > pi0)]
    return sides + [pi0, _entropy_rows(pvp), h_cond]


def _dual_bisection(tables, budget):
    """Least certified dual value over lam >= 1 met by bisection at budget > 0,
    and the minorant's supporting decompositions (x, w) of pi0 at the last
    lam on either side of the optimal multiplier."""
    (xl, al, kl), (xr, ar, kr), pi0, h0, k0 = tables

    def point(lam):
        # best partners from either side in turn end on the supporting line
        yl, yr = al - lam * kl, ar - lam * kr
        i = int(np.argmax(xl))
        while True:
            j = int(np.argmin((yr - yl[i]) / (xr - xl[i])))
            n = int(np.argmax((yr[j] - yl) / (xr[j] - xl)))
            if not (yr[j] - yl[n]) / (xr[j] - xl[n]) > (yr[j] - yl[i]) / (xr[j] - xl[i]):
                break
            i = n
        slope = (yr[j] - yl[i]) / (xr[j] - xl[i])
        # a line of any slope below every vertex bounds the envelope at pi0
        floor = min(np.min(yl - slope * (xl - pi0)), np.min(yr - slope * (xr - pi0)))
        w = (xr[j] - pi0) / (xr[j] - xl[i])
        leak = k0 - w * kl[i] - (1.0 - w) * kr[j]
        value = float(lam * budget + h0 - lam * k0 - floor)
        return value, budget - leak, ((xl[i], xr[j]), (w, 1.0 - w))

    best, grad, dec = point(1.0)
    sides = {grad < 0.0: dec}
    if grad < 0.0:
        lam_lo, lam_hi = 1.0, best / budget  # the dual is at least lam * budget
        while lam_hi - lam_lo > _LAMBDA_RTOL * lam_hi:
            lam = np.sqrt(lam_lo * lam_hi) if lam_hi > 2.0 * lam_lo else 0.5 * (lam_lo + lam_hi)
            value, grad, dec = point(lam)
            best = min(best, value)
            sides[grad < 0.0] = dec
            lam_lo, lam_hi = (lam, lam_hi) if grad < 0.0 else (lam_lo, lam)
    return min(best, float(h0)), list(sides.values())


def _time_share(joint, budget, decs):
    """(I(U;V'), P(U | V')) of the best time-sharing of two candidates within the budget:
    U = V', a constant U, and each decomposition (x, w) of P(V') into
    posteriors (1 - x_u, x_u) with weights w_u."""
    pvp = joint.sum(axis=1)
    auxes = [np.eye(2), np.ones((2, 1))]
    auxes += [np.stack([1.0 - np.array(x), x]) * w / pvp[:, None] for x, w in decs]
    gain, i_uv = np.array([[v[0] for v in _aux_objective(joint, k[None])] for k in auxes]).T
    leak = gain - i_uv
    gain[1] = leak[1] = 0.0  # a constant U, exactly
    la, lb = leak[:, None], leak[None, :]
    theta = np.where(la <= budget, 1.0, (budget - lb) / np.where(la > lb, la - lb, 1.0))
    score = np.where(lb <= budget, theta * gain[:, None] + (1.0 - theta) * gain, -np.inf)
    a, b = np.unravel_index(np.argmax(score), score.shape)
    aux = np.concatenate([theta[a, b] * auxes[a], (1.0 - theta[a, b]) * auxes[b]], axis=1)
    aux = aux[:, aux.any(axis=0)] / aux.sum(axis=1, keepdims=True)
    return float(max(_aux_objective(joint, aux[None])[0][0], 0.0)), aux


def _large_correlation(joint, lo, hi):
    """(value, witness P(U | V'), upper end) of F between the budgets lo <= hi; a lower
    end above the upper by more than _BRACKET_ROUNDING raises SolverDiverged."""
    if hi == 0.0:
        value, aux = _gacs_korner(joint)
        return value, aux, value
    if joint.shape[0] != 2:
        raise NonBinarySource(f"a positive leakage budget needs |V'| = 2, got {joint.shape[0]}")
    tables = _dual_tables(joint)
    upper, decs = _dual_bisection(tables, hi)
    if lo <= 0.0:
        value, aux = _gacs_korner(joint)
    else:
        value, aux = _time_share(joint, lo, decs if lo == hi else _dual_bisection(tables, lo)[1])
    if value > upper + _BRACKET_ROUNDING:
        raise SolverDiverged(f"CR lower end {value!r} above its upper end {upper!r}")
    return value, aux, max(upper, value)


def cr_capacity(w, src, tol=DEFAULT_TOL):
    """Correlation-assisted common-randomness capacity with an informed jammer.

    Small-correlation case (source MI within the max-min value, ties in
    tol.case_tie_band included): the rates add, and the max-min bracket
    shifts by the MI.  Large-correlation case (module docstring): H(K) if
    the max-min hi is 0; else, for binary V', the time-shared witness at lo
    and the dual at hi, and NonBinarySource for |V'| > 2.  ``value`` is the
    feasible lower end.  Nothing is drawn at random.
    """
    cap = capacity_informed_jammer(w, tol=tol)
    c_star, (lo, hi) = cap.value, cap.bracket
    i_vv = src.mutual_information()
    if i_vv <= c_star + tol.case_tie_band:
        return CrCapacityResult(
            c_star + i_vv, "small_correlation", None, c_star, i_vv, (lo + i_vv, hi + i_vv)
        )
    value, aux, upper = _large_correlation(src.joint, lo, hi)
    return CrCapacityResult(value, "large_correlation", aux, c_star, i_vv, (value, upper))


@dataclass(frozen=True)
class CorrelationLengthProfile:
    """Growth profile of the correlation budget (l_n) against log n and n."""

    liminf_log_ratio: float      # liminf l_n / log n
    limsup_log_ratio: float      # limsup l_n / log n
    asymptotic_fraction: float   # lim l_n / n


def cr_rate_limited_lower_bound(w, src, profile):
    """Lower bound on the common-randomness rate under a correlation budget.

    Evaluates (1 - f) * maxmin + f * r'' where f is the asymptotic fraction
    of channel uses spent on correlation and r'' = 3 / r comes from the rate
    of the induced binary channel, whose correct-decision intervals are
    exact at every alphabet size.  When no separating pair exists (r = 0)
    the correlation part contributes nothing and the profile window check
    is moot.
    """
    from .separation import (
        NotSeparable,
        binary_avc_positivity,
        build_g_pair,
        induced_binary_avc,
        separation_test,
    )

    f = profile.asymptotic_fraction
    if not (0.0 <= f <= 1.0):
        raise ProfileOutOfRange(f"asymptotic fraction {f} outside [0, 1]")
    c_star = capacity_informed_jammer(w).value
    gp = build_g_pair(src, w.x_alphabet)
    cert = separation_test(w, src, gp)
    rate = 0.0
    if not isinstance(cert, NotSeparable):
        pos = binary_avc_positivity(induced_binary_avc(cert, w, src, gp))
        if pos["positive"]:
            rate = pos["rate_r"]
    if rate <= 0.0:
        return (1.0 - f) * c_star
    r_pp = 3.0 / rate
    if not (r_pp < profile.liminf_log_ratio <= profile.limsup_log_ratio < np.inf):
        raise ProfileOutOfRange(
            f"need r'' = {r_pp:.6g} < liminf ratio {profile.liminf_log_ratio} "
            f"<= limsup ratio {profile.limsup_log_ratio} < inf"
        )
    return (1.0 - f) * c_star + f * r_pp
