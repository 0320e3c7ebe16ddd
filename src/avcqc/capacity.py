"""Holevo quantity and capacity formulas for informed-jammer channels.

The central object is the max-min value

    max over input distributions P of
    min over memoryless jamming kernels Q of  chi(P, averaged channel)

together with the correlation-assisted common-randomness capacities built
on top of it.  chi is convex in the kernel (joint convexity of the
relative entropy) and concave in the input distribution, so the max-min
value is a saddle value (Sion's minimax theorem).  The solver alternates
projected-gradient descent on the kernel with entropic mirror ascent on the
input distribution along one trajectory from the uniform start, and brackets
the value after the first inner descent and after every outer step: a
Frank-Wolfe lower bound from the convexity in the kernel, and the Holevo
upper bound max_x D(rho_x || rho_bar).  A bracket at most 1e-6 wide ends
the solve, and its width is the certified gap at every alphabet size.
While the bracket stays open the ascent restarts from the point it
reached.  The inner minimum alone (``min_chi_over_jammer``) is one
projected-gradient descent from the uniform kernel, for the same
convexity.

The max-min solver draws no random numbers.  Elsewhere all randomness
flows from a single seed; identical seeds give identical results bit for
bit.
"""

from dataclasses import dataclass
import numpy as np

from .channels import JammerKernel
from .config import DEFAULT_TOL
from .errors import AlphabetMismatch, InvalidArgument, ProfileOutOfRange, SolverDiverged
from .geometry import kernel_grid, pattern_search, project_simplex_rows
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
# a rejected kernel row stops backtracking once its step is below this: the
# projected move is then under the rounding of the kernel entries
_STEP_FLOOR = 1e-14
# an outer step is accepted when the inner minimum falls by at most this:
# the inner descent's own rounding, not a loss of the concave objective
_ASCENT_SLACK = 1e-13
# outer backtracking ends once the mirror step is below this
_ETA_FLOOR = 1e-10
# a max-min bracket at most this wide ends the solve: the value is then
# certified to 1e-6 bits, far inside the 5e-3 the grid oracle checks
_SADDLE_BRACKET = 1e-6
# chi lies in the bracket taken at its own point up to the rounding of the
# spectra (|X| = 1 gives hi = -1.1e-16 below chi = 0); the returned bracket
# is widened to hold the value by at most this, and a larger miss raises
_BRACKET_ROUNDING = 1e-12
# holevo_capacity stops once its sandwich max_x D - chi is at most this, or
# after _HOLEVO_MAX_ITER fixed-point steps
_HOLEVO_GAP = 1e-9
_HOLEVO_MAX_ITER = 200_000
# a kernel descent step gaining at most this counts toward the stall window
# (the default; the solvers pass their own from Tolerances)
_DESCENT_GAIN = 1e-10
# probabilities of the auxiliary-channel search in [-this, 0) are rounding
# and count as 0 in its entropies
_PROB_CLAMP = 1e-12
# the auxiliary-channel search ends once its compass span is below this
_AUX_SPAN_FLOOR = 1e-7


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


def _grad_q(p, states, spec):
    """Gradient of chi with respect to the kernel entries, from the mixture spectra."""
    logs = _log2_from_spectra(*spec)
    diff = logs[..., :-1, :, :] - logs[..., -1:, :, :]
    return p[..., None] * np.real(np.einsum("xsij,...xji->...xs", states, diff))


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
    """Holevo capacity of a fixed cq channel by fixed-point iteration.

    Returns (capacity, optimal input distribution).  The iteration keeps the
    standard sandwich: chi(p) <= C <= max_x D(W(x) || ensemble average), and
    stops when the gap closes below _HOLEVO_GAP or after _HOLEVO_MAX_ITER
    steps.
    """
    nx = len(w.x_alphabet)
    p = np.full(nx, 1.0 / nx)
    s_x = _entropy_stack(w.states)
    for _ in range(_HOLEVO_MAX_ITER):
        rho_bar = np.einsum("x,xij->ij", p, w.states)
        lb = _log2_from_spectra(*eigh_stack(rho_bar))
        d_x = -s_x - np.real(np.einsum("xij,ji->x", w.states, lb))
        lower = float(p @ d_x)
        upper = float(d_x.max())
        if upper - lower <= _HOLEVO_GAP:
            break
        logp = np.log(np.clip(p, _LOG_FLOOR, None)) + LN2 * d_x
        logp -= logp.max()
        p = np.exp(logp)
        p /= p.sum()
    return max(lower, 0.0), p


# ---------------------------------------------------------------------------
# inner minimization over jamming kernels
# ---------------------------------------------------------------------------

def _pg_min_kernels(states, p, q, max_iter=300, tol_obj=_DESCENT_GAIN, window=20):
    """Batched projected-gradient descent of chi over kernels, one per row.

    p, q carry a leading restart axis.  Monotone by backtracking.  Each
    candidate's mixtures are decomposed once: chi comes from the
    eigenvalues, and the accepted candidate's spectra give the next
    gradient.  A backtracking retry evaluates only the rows that have not
    accepted yet, and a row whose stall count (steps in a row that gained
    at most tol_obj) has reached window is frozen and takes no more
    steps, so every row ends exactly as it would if run on its own.  The
    loop ends when every row is frozen or after max_iter steps.

    Returns the final objectives, kernels and mixture spectra (w, v) as
    laid out by ``_mixture_spectra``.
    """
    nr = q.shape[0]
    q = np.array(q, dtype=float)
    w, v = _mixture_spectra(p, states, q)
    f = _chi_from_spectra(p, w)
    if not np.all(np.isfinite(f)):
        raise SolverDiverged("non-finite objective at the initial kernels")
    eta = np.full(nr, 1.0)
    stall = np.zeros(nr, dtype=int)
    for _ in range(max_iter):
        live = np.flatnonzero(stall < window)
        if live.size == 0:
            break
        pl, ql, fl, step = p[live], q[live], f[live], eta[live]
        g = _grad_q(pl, states, (w[live], v[live]))
        ok = np.zeros(live.size, dtype=bool)
        f_new = fl.copy()
        todo = np.arange(live.size)
        for _try in range(30):
            cand = project_simplex_rows(ql[todo] - step[todo, None, None] * g[todo])
            cw, cv = _mixture_spectra(pl[todo], states, cand)
            f_cand = _chi_from_spectra(pl[todo], cw)
            better = f_cand <= fl[todo] + _DESCENT_SLACK
            acc, rows = todo[better], live[todo[better]]
            q[rows], w[rows], v[rows] = cand[better], cw[better], cv[better]
            f_new[acc] = f_cand[better]
            ok[acc] = True
            todo = todo[~better]
            todo = todo[step[todo] >= _STEP_FLOOR]
            if todo.size == 0:
                break
            step[todo] /= 2.0
        progress = fl - f_new
        f[live] = f_new
        eta[live] = np.where(ok, np.minimum(step * 1.25, 1e3), step)
        stall[live] = np.where(progress > tol_obj, 0, stall[live] + 1)
    if not np.all(np.isfinite(f)):
        raise SolverDiverged("non-finite objective during kernel descent")
    return f, q, (w, v)


def _check_restarts(restarts):
    if restarts < 1:
        raise InvalidArgument(f"restarts must be at least 1, got {restarts}")


def min_chi_over_jammer(w, p, tol=DEFAULT_TOL):
    """Minimize chi(p, averaged channel) over memoryless jamming kernels.

    Returns (value, JammerKernel).  chi(p, W_Q) is convex in Q (joint
    convexity of the relative entropy), so every local minimum over the
    kernel polytope is global and one projected-gradient descent from the
    uniform kernel finds it: seeded restarts could only find the same
    minimum again.
    """
    pv = validate_probability_vector(p, tol)
    if pv.size != len(w.x_alphabet):
        raise AlphabetMismatch(
            f"distribution over {pv.size} letters, channel has {len(w.x_alphabet)}"
        )
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    # _pg_min_kernels works on stacks: a stack of one row
    f, q, _ = _pg_min_kernels(w.states, pv[None], np.full((1, nx, ns), 1.0 / ns),
                              max_iter=2000, tol_obj=tol.solver_objective, window=20)
    return float(max(f[0], 0.0)), JammerKernel(w.x_alphabet, w.s_alphabet, q[0])


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


def _saddle_bracket(states, p, q, chi, spec, d_x):
    """(lo, hi) with lo <= max_P min_Q chi(P, W_Q) <= hi, from the spectra at (p, q).

    chi(p, W_Q) is convex in Q, so its linearisation at q minimized over
    the kernel polytope (one vertex per row, the Frank-Wolfe gap) bounds
    min_Q chi(p, W_Q) from below.  The value is at most C_Holevo(W_q),
    which is at most max_x D(rho_x || rho_bar), the largest entry of
    d_x = _grad_p at (p, q).  Both meet at a saddle point.  Reuses the
    cached decomposition, so it costs no LAPACK call.
    """
    g = _grad_q(p, states, spec)
    lo = chi + np.sum(g.min(axis=-1) - np.sum(g * q, axis=-1))
    return float(lo), float(d_x.max())


def _ascend(states, p, q, outer_iter, inner_iter, tol):
    """Mirror ascent from one (p, q) start, stopped by its saddle bracket.

    Entropic mirror ascent on p (the ascent direction is the per-letter
    relative entropy at the inner minimizer) alternates with
    projected-gradient descent on the kernel.  The saddle bracket is taken
    after the initial inner descent and after every outer step; once it is
    at most _SADDLE_BRACKET wide the ascent returns at that point.  A
    trajectory whose bracket stays open ends once the objective has gained
    at most tol.solver_objective for 20 steps in a row, or after outer_iter
    steps; the inner minimum at its final p is then descended again from
    the final kernel (chi is convex in the kernel, so no other start is
    needed) and bracketed there.

    Returns chi at the returned point, its p and kernel, its bracket
    (lo, hi) and the objective trace.
    """
    # _pg_min_kernels works on stacks: a stack of one row
    p, q = np.array(p, dtype=float)[None], np.asarray(q)[None]
    f, q, spec = _pg_min_kernels(states, p, q, max_iter=400,
                                 tol_obj=tol.solver_objective / 10)
    eta = 0.5
    stall = 0
    trace = [float(f[0])]
    for step in range(outer_iter + 1):
        d_x = _grad_p(p, states, q, spec)
        lo, hi = _saddle_bracket(states, p, q, f[0], spec, d_x)
        if hi - lo <= _SADDLE_BRACKET:
            return f[0], p[0], q[0], (lo, hi), trace
        if step == outer_iter or stall >= 20:
            break
        g = d_x - d_x.max(axis=-1, keepdims=True)
        f_old = f
        for _try in range(20):
            logp = np.log(np.clip(p, _LOG_FLOOR, None)) + eta * g
            logp -= logp.max(axis=-1, keepdims=True)
            cand_p = np.exp(logp)
            cand_p /= cand_p.sum(axis=-1, keepdims=True)
            cand_f, cand_q, cand_spec = _pg_min_kernels(
                states, cand_p, q, max_iter=inner_iter,
                tol_obj=tol.solver_objective / 10, window=10,
            )
            if cand_f[0] >= f_old[0] - _ASCENT_SLACK:
                p, q, f, spec = cand_p, cand_q, cand_f, cand_spec
                eta = min(eta * 1.2, 50.0)
                break
            if eta < _ETA_FLOOR:
                break
            eta /= 2.0
        stall = 0 if f[0] - f_old[0] > tol.solver_objective else stall + 1
        trace.append(float(f[0]))
    # an open leg ends on a long kernel descent, and the next leg's initial
    # descent runs its own stall window from there: without this polish the
    # 5x5 d=3 ROADMAP draw takes 157 outer steps instead of 115
    f, q, spec = _pg_min_kernels(states, p, q, max_iter=2000, tol_obj=tol.solver_objective / 10)
    bracket = _saddle_bracket(states, p, q, f[0], spec, _grad_p(p, states, q, spec))
    return f[0], p[0], q[0], bracket, trace


def capacity_informed_jammer(
    w,
    seed=0,
    restarts=32,
    outer_iter=400,
    inner_iter=120,
    tol=DEFAULT_TOL,
    certify=True,
):
    """Correlation-assisted capacity formula: max over P of min over Q of chi.

    chi(P, W_Q) is concave in P and convex in Q (joint convexity of the
    relative entropy), so by Sion's minimax theorem the max-min value is a
    saddle value and one ascent trajectory reaches it.  The solver runs
    ``_ascend`` from the uniform (P, Q) start and brackets the value at the
    point it reaches; a bracket at most _SADDLE_BRACKET wide ends the
    solve.  While the bracket stays open the ascent restarts from that
    point, with fresh step sizes and stall counts, at most restarts - 1
    times.  The leg with the narrowest bracket is returned: the value lies
    in every leg's bracket, so the narrowest is the best certificate.
    ``solver_trace`` runs through the legs up to the returned one, and
    ``bracket`` holds its (lo, hi).  ``_ascend`` checks the bracket after
    its first inner descent and after every outer step, so a start that is
    already a saddle point costs one inner descent.  ``certified_gap`` is
    hi - lo, at every alphabet size; the value lies within it of the
    max-min value.  The solve draws no random numbers; ``seed`` and
    ``certify`` are accepted for existing callers and change nothing.
    """
    _check_restarts(restarts)
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    states = w.states
    p, q = np.full(nx, 1.0 / nx), np.full((nx, ns), 1.0 / ns)
    trace, best = [], None
    for _leg in range(restarts):
        chi, p, q, (lo, hi), leg_trace = _ascend(states, p, q, outer_iter, inner_iter, tol)
        trace += leg_trace
        if best is None or hi - lo < best[-1][1] - best[-1][0]:
            best = (chi, p, q, tuple(trace), (lo, hi))
        if hi - lo <= _SADDLE_BRACKET:
            break
    chi, p, q, trace, (lo, hi) = best
    value = float(min(max(chi, 0.0), np.log2(w.dim)))
    if not lo - _BRACKET_ROUNDING <= value <= hi + _BRACKET_ROUNDING:
        raise SolverDiverged(f"value {value!r} outside its bracket ({lo!r}, {hi!r})")
    lo, hi = min(lo, value), max(hi, value)
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


def _entropy_rows(p):
    return entropy_from_eigenvalues(p, floor=_PROB_CLAMP)


def _source_entropies(joint_vv):
    """H(V') and H(V): constant in the auxiliary channel, so a search computes them once."""
    return _entropy_rows(joint_vv.sum(axis=1)), _entropy_rows(joint_vv.sum(axis=0))


def _aux_objective(joint_vv, k_rows, source_entropies=None):
    """I(U;V') and I(U;V) for stacked auxiliary channels k_rows (..., V', U)."""
    h_vp, h_v = _source_entropies(joint_vv) if source_entropies is None else source_entropies
    j_uvp = joint_vv.sum(axis=1)[:, None] * k_rows  # (..., V', U)
    pu = j_uvp.sum(axis=-2)
    i_uvp = _entropy_rows(pu) + h_vp - _entropy_rows(j_uvp.reshape(*j_uvp.shape[:-2], -1))
    j_uv = np.einsum("vw,...vu->...uw", joint_vv, k_rows)  # (..., U, V)
    i_uv = (
        _entropy_rows(j_uv.sum(axis=-1))
        + h_v
        - _entropy_rows(j_uv.reshape(*j_uv.shape[:-2], -1))
    )
    return i_uvp, i_uv


def _aux_channel_search(src, budget, seed, slack, restarts=64, grid_steps=16):
    """Maximize I(U;V') over Markov chains U <- V' -> V subject to the
    leakage constraint I(U;V') - I(U;V) <= budget + slack; all starts run
    as one batched pattern search and the first best result wins."""
    joint = src.joint
    nvp = len(src.v_prime_alphabet)
    nu = nvp + 1
    rng = np.random.default_rng(seed)
    h_src = _source_entropies(joint)

    def feasible_value(k_rows):
        i_uvp, i_uv = _aux_objective(joint, k_rows, h_src)
        feas = i_uvp - i_uv <= budget + slack
        return np.where(feas, i_uvp, -1.0)

    best_val, best_k = 0.0, np.full((nvp, nu), 1.0 / nu)
    if nvp == 2:
        grid = kernel_grid(nvp, nu, grid_steps)
        vals = feasible_value(grid)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_k = float(vals[k]), grid[k].copy()

    starts = np.stack([best_k] + [rng.dirichlet(np.ones(nu), size=nvp) for _ in range(restarts)])
    for val, k_rows in zip(*pattern_search(feasible_value, starts, 0.25, _AUX_SPAN_FLOOR)):
        if val > best_val:
            best_val, best_k = float(val), k_rows
    return max(best_val, 0.0), best_k


def cr_capacity(w, src, seed=0, restarts=32, tol=DEFAULT_TOL):
    """Correlation-assisted common-randomness capacity with an informed jammer.

    Small-correlation case (source MI within the max-min value): the two
    rates add.  Large-correlation case: maximize I(U;V') over auxiliary
    channels with |U| = |V'| + 1 under the leakage budget given by the
    max-min value.  Ties inside the band resolve to the small case.
    """
    c_star = capacity_informed_jammer(w, seed=seed, restarts=restarts, tol=tol).value
    i_vv = src.mutual_information()
    if i_vv <= c_star + tol.case_tie_band:
        return CrCapacityResult(
            value=c_star + i_vv,
            case_tag="small_correlation",
            aux_channel=None,
            maxmin_value=c_star,
            source_mi=i_vv,
        )
    value, aux = _aux_channel_search(src, c_star, seed=seed + 1, slack=tol.cr_constraint_slack)
    return CrCapacityResult(
        value=value,
        case_tag="large_correlation",
        aux_channel=aux,
        maxmin_value=c_star,
        source_mi=i_vv,
    )


@dataclass(frozen=True)
class CorrelationLengthProfile:
    """Growth profile of the correlation budget (l_n) against log n and n."""

    liminf_log_ratio: float      # liminf l_n / log n
    limsup_log_ratio: float      # limsup l_n / log n
    asymptotic_fraction: float   # lim l_n / n


def cr_rate_limited_lower_bound(w, src, profile, seed=0, restarts=32):
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
    c_star = capacity_informed_jammer(w, seed=seed, restarts=restarts).value
    gp = build_g_pair(src, w.x_alphabet)
    cert = separation_test(w, src, gp, seed=seed + 1)
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
