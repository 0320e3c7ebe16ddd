"""Holevo quantity and capacity formulas for informed-jammer channels.

The central object is the max-min value

    max over input distributions P of
    min over memoryless jamming kernels Q of  chi(P, averaged channel)

together with the correlation-assisted common-randomness capacities built
on top of it.  chi is convex in the kernel (joint convexity of the
relative entropy) and concave in the input distribution, so the max-min
value is a saddle value (Sion's minimax theorem).  The solver follows one
trajectory from the uniform (P, Q) start with one kind of outer step, a
projected Newton step on P and Q together (``_outer_step``).  It brackets
the value at the start, after every outer step and after every descent
of the held kernel: a Frank-Wolfe lower bound from the convexity in the
kernel, and the Holevo upper bound max_x D(rho_x || rho_bar).  A bracket
at most Tolerances.maxmin_bracket wide (default 1e-6) ends the solve, and
its width is the certified gap at every alphabet size.  A trajectory that
stops short of that width (no outer step found, or the outer step budget
spent) returns the bracket at its last point, which still holds the
value.  The inner minimum alone
(``min_chi_over_jammer``) is one kernel descent from the uniform kernel,
for the same convexity; the Holevo capacity of a fixed channel
(``holevo_capacity``) is the solve with one jammer letter.

Each point (P, Q) is evaluated once (``_Point``).  A candidate costs one
batched eigendecomposition of the mixtures rho_x and rho_bar and their
entropies: chi, all that its accept test reads.  An accepted point rotates
the states once into the eigenbases of rho_x and rho_bar, and everything
else is read from that rotation: the kernel gradient as diagonal traces
against the spectra floored at 1e-18 (no matrix logarithm is built), its
Frank-Wolfe gap, d_x = D(rho_x || rho_bar) and the second derivatives.  For
a state sigma = sum_i l_i |i><i| and directions A, B,

    d^2 S(sigma) / dA dB = -(1/ln 2) sum_ij A~_ij B~_ji Lambda_ij,

with A~ = V^dag A V in sigma's eigenbasis and the Daleckii-Krein divided
differences Lambda_ij = (ln l_i - ln l_j) / (l_i - l_j), and 1 / l_i where
the (floored) eigenvalues coincide.  The kernel block chi_qq gives the inner
step.  With chi_pp and chi_pq, read from rho_bar's rotation the same way,
it gives the outer step: one KKT solve of chi's quadratic model, maximized
in P and minimized in Q on the free entries under their row constraints.
Eliminating dQ leaves the Newton step of phi(P) = min_Q chi(P, W_Q), which
is concave, on the Schur complement chi_pp - chi_pq chi_qq^-1 chi_qp (the
envelope theorem), and dQ = dQ/dP dP plus the kernel's own Newton
correction, so no step waits for an inner minimum.  A step whose point
does not halve the bracket is refused, and the held kernel is descended
to its inner minimum.  From there each trial point of the halved steps is
descended too, and the first at which phi falls by at most the descent's
own stop is kept.  Near the saddle the steps converge quadratically: the
bracket closes in a few steps at 1e-6 and at 1e-10 alike.  The kernel
descent stops once its Frank-Wolfe gap is at most min(1e-9, width /
1000).  The bracket's lower end is lo = chi - gap, so that stop leaves
the width to the outer steps; a tighter inner stop would buy the bracket
nothing.

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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channels import JammerKernel, _input_distribution
from .config import DEFAULT_TOL
from .errors import InvalidArgument, NonBinarySource, SolverDiverged
from .geometry import _STEP_FLOOR, _STEP_TRIALS, _Simplices, _free_entries, _projected_newton
from .geometry import _solve_kkt, project_simplex_rows
from .operators import _integer, eigh_stack, eigvalsh_stack, entropy_from_eigenvalues

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
# the outer Newton step holds at 0 the letters below the maximum of d_x
# whose p_x is at most this, or at most the distance from a stationary point
_HOLD_CAP = 1e-3
# cells of the graded grid on which the binary CR dual builds its minorant
_DUAL_CELLS = 4096
# the CR dual's multiplier is bisected to an interval this narrow, relative to it
_LAMBDA_RTOL = 1e-12


# ---------------------------------------------------------------------------
# one evaluated point (p, q)
# ---------------------------------------------------------------------------

def _mixture_spectra(p, states, q):
    """One batched decomposition of the mixtures rho_x then rho_bar: (X+1, d[, d])."""
    nx = len(p)
    mix = np.empty((nx + 1, *states.shape[2:]), dtype=complex)
    np.einsum("xs,xsij->xij", q, states, out=mix[:nx])
    np.matmul(p, mix[:nx].reshape(nx, -1), out=mix[nx].reshape(-1))
    return eigh_stack(mix)


def _dk_weights(lam):
    """Daleckii-Krein divided differences of ln at a spectrum floored at _LOG_FLOOR: (..., d, d).

    Lambda_ij = (ln l_i - ln l_j) / (l_i - l_j), and 1 / l_i where the two
    coincide.  Written as log1p(x) / x / b with b the smaller eigenvalue and
    x = (a - b) / b, which keeps its digits when a and b are close.
    """
    a = np.maximum(lam[..., :, None], lam[..., None, :])
    b = np.minimum(lam[..., :, None], lam[..., None, :])
    x = (a - b) / b
    return np.divide(np.log1p(x), x, out=np.ones(x.shape), where=x > 0.0) / b


class _Point:
    """One evaluated (p, q) on states (X, S, d, d), each quantity computed once: building
    it costs one ``_mixture_spectra`` and the entropies (chi).  ``derive``, called once the
    point is accepted, rotates the states into the eigenbases of rho_x and rho_bar, and
    everything else is read from that rotation."""

    def __init__(self, states, p, q):
        self.states, self.p, self.q = states, p, q
        self.spec = _mixture_spectra(p, states, q)
        self.s = entropy_from_eigenvalues(self.spec[0], floor=_NEG_CLAMP)
        self.chi = self.s[-1] - p @ self.s[:-1]

    def derive(self):
        """The rotated states, kernel gradient, Frank-Wolfe gap and d_x, made once; returns self."""
        if hasattr(self, "d_x"):
            return self
        w, v = self.spec
        vh = v.conj().swapaxes(-1, -2)
        self.own = vh[:-1, None] @ self.states @ v[:-1, None]
        self.bar = vh[-1] @ self.states @ v[-1]
        # tr W log2 sigma = sum_i (V^dag W V)_ii log2 l_i in sigma's eigenbasis
        # V, with the spectrum floored at _LOG_FLOOR: no matrix log is built
        self.floored = np.maximum(w, _LOG_FLOOR)
        lw = np.log2(self.floored)
        own_log = (self.own.diagonal(axis1=-2, axis2=-1).real @ lw[:-1, :, None])[..., 0]
        bar_log = self.bar.diagonal(axis1=-2, axis2=-1).real @ lw[-1]
        # tr W_xs (log2 rho_x - log2 rho_bar): the kernel gradient of chi per unit p_x
        self.ratio = own_log - bar_log
        self.grad = self.p[:, None] * self.ratio
        # chi is convex in q, so chi at q exceeds the inner minimum by at most
        # this Frank-Wolfe gap: the linearisation's drop to its best vertex
        self.gap = float(np.add.reduce(self.grad * self.q, axis=None)
                         - np.add.reduce(np.minimum.reduce(self.grad, axis=-1)))
        # d_x = D(rho_x || rho_bar), the supergradient of chi in p.  0 - S -
        # cross, not -S - cross: a pure rho_x inside rho_bar's support gives +0.0
        self.d_x = 0.0 - self.s[:-1] - np.add.reduce(self.q * bar_log, axis=-1)
        # the bracket (lo, hi) around the max-min value, see ``_ascend``
        self.lo, self.hi = float(self.chi - self.gap), float(np.maximum.reduce(self.d_x))
        return self

    @cached_property
    def lam(self):
        """Daleckii-Krein weights of the X+1 spectra of a derived point, (X+1, 2 d^2): each
        twice, as sum_ij A_ij B_ji Lambda_ij (A, B Hermitian) is real, a product of (Re, Im)
        pairs."""
        return _dk_weights(self.floored).reshape(len(self.s), -1).repeat(2, axis=-1)

    @cached_property
    def kernel_hessian(self):
        """Hessian of chi in the kernel entries, (X*S, X*S): rho_bar moves with every entry
        (weight p_x) and rho_x with its own row only, so H[(x,s),(x',s')] =
        (delta_xx' p_x K_x(W_xs, W_xs') - p_x p_x' K_bar(W_xs, W_x's')) / ln 2."""
        nx, ns = self.q.shape
        k = nx * ns
        bar = self.bar.reshape(k, -1).view(float)
        own = self.own.reshape(nx, ns, -1).view(float)
        pw = self.p.repeat(ns)
        # h leads a buffer k entries longer, so that its diagonal blocks
        # h[(x, :), (x, :)] are one strided view of it
        buf = np.empty(k * (k + 1))
        h = buf[: k * k].reshape(k, k)
        np.multiply(np.multiply.outer(-pw, pw), (bar * self.lam[-1]) @ bar.T, out=h)
        blocks = buf.reshape(nx, -1)[:, : ns * k].reshape(nx, ns, k)[:, :, :ns]
        blocks += self.p[:, None, None] * ((own * self.lam[:-1, None]) @ own.swapaxes(-1, -2))
        h /= LN2
        return h

    def bracket(self):
        return self.lo, self.hi

    def width(self):
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# Holevo quantity and fixed-channel capacity
# ---------------------------------------------------------------------------

def _entropy_stack(mats):
    return entropy_from_eigenvalues(eigvalsh_stack(mats), floor=_NEG_CLAMP)


def holevo_chi(p, w, tol=DEFAULT_TOL):
    """chi(p; W) = S(sum_x p(x) W(x)) - sum_x p(x) S(W(x)) in bits."""
    pv = _input_distribution(p, w, tol)
    rho_bar = np.einsum("x,xij->ij", pv, w.states)
    val = float(_entropy_stack(rho_bar) - pv @ _entropy_stack(w.states))
    return max(val, 0.0)


def holevo_capacity(w):
    """Holevo capacity of a fixed cq channel: the max-min solver on its single-state AVC.

    Returns (capacity, optimal input distribution).  With one jammer letter
    the kernel is fixed, the inner minimum is chi itself and the
    ``_outer_step`` is a Newton step of Blahut-Arimoto on p.  The
    solve is that one trajectory from the uniform p.  It keeps the standard
    sandwich chi(p) <= C <= max_x D(W(x) || ensemble average) and ends once
    it is at most _HOLEVO_BRACKET wide, after 400 outer steps, or when no
    Newton step is accepted; the capacity returned is chi at the returned p.
    """
    tol = replace(DEFAULT_TOL, maxmin_bracket=_HOLEVO_BRACKET)
    return _saddle_solve(w.states[:, None], outer_iter=400, inner_iter=120, tol=tol)[:2]


# ---------------------------------------------------------------------------
# inner minimization over jamming kernels
# ---------------------------------------------------------------------------

def _descend_kernel(pt, max_iter, gap_stop=_KERNEL_GAP):
    """Projected Newton descent of chi over the kernel q (X, S) of the evaluated point pt, at its p.

    One run of the set distance's loop ``geometry._projected_newton`` on
    the kernel rows with chi's ``kernel_hessian``, keeping the first trial
    kernel at which chi does not rise beyond _DESCENT_SLACK; its blocking
    step walks q onto a face of minimizing kernels.  It ends on the loop's
    stop: a gap at most gap_stop, max_iter steps, a singular system, or no
    trial kept.  It returns its last point, derived: chi - gap there bounds
    the inner minimum from below wherever it stops.  On |S| = 1 no step is
    taken.
    """
    if not np.isfinite(pt.chi):
        raise SolverDiverged("non-finite objective at the initial kernel")

    def at(pt):
        pt.derive()
        return pt.q.ravel(), pt.grad.ravel(), pt.gap, lambda: pt.kernel_hessian

    def accept(pt, q):
        cand = _Point(pt.states, pt.p, q.reshape(pt.q.shape))
        return cand if cand.chi <= pt.chi + _DESCENT_SLACK else None

    parts = ((slice(0, pt.q.size), pt.q.shape[1]),)
    pt = _projected_newton(pt, parts, at, accept, max_iter, gap_stop)[0]
    if not np.isfinite(pt.chi):
        raise SolverDiverged("non-finite objective during kernel descent")
    return pt


def min_chi_over_jammer(w, p, tol=DEFAULT_TOL):
    """Minimize chi(p, averaged channel) over memoryless jamming kernels.

    Returns (value, JammerKernel).  chi(p, W_Q) is convex in Q (joint
    convexity of the relative entropy), so every local minimum over the
    kernel polytope is global and one descent from the uniform kernel finds
    it: seeded restarts could only find the same minimum again.  The descent
    (``_descend_kernel``) takes the projected Newton steps of the one loop
    ``geometry._projected_newton``, the set distance's too, and stops once its
    Frank-Wolfe gap is at most _KERNEL_GAP, so the value lies within 1e-9 of
    the minimum, also where the minimizing kernels fill a face (the letters'
    outputs made to coincide): its blocking step walks onto the face.
    """
    pv = _input_distribution(p, w, tol)
    nx, ns = len(w.x_alphabet), len(w.s_alphabet)
    pt = _descend_kernel(_Point(w.states, pv, np.full((nx, ns), 1.0 / ns)), max_iter=2000)
    return float(max(pt.chi, 0.0)), JammerKernel(w.x_alphabet, w.s_alphabet, pt.q)


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
    stop_reason: str              # "bracket", "max_iter" or "no_step": how the outer ascent ended


class _SaddleSystem(_Simplices):
    """The outer step's product of simplices (p, q), p (X,) and q (X, S), built once per solve.

    The ``geometry._Simplices`` of the n = X + X S entries, p then the
    kernel rows, whose KKT system and projection the outer step uses.  The
    saddle's own are ``write_hessian``, which fills the Hessian block
    ``hess`` at each point, and ``own_rows``, the entries of it that a
    kernel row moves through its own rho_x.
    """

    def __init__(self, nx, ns):
        super().__init__(((slice(0, nx), nx), (slice(nx, nx + nx * ns), ns)))
        self.shape, size = (nx, ns), self.kkt.shape[0]
        # the entries (x, (x, s)) of -chi_pq, where kernel row x moves its own rho_x
        self.own_rows = self.kkt.reshape(-1)[nx : nx + nx * (size + ns)].reshape(nx, -1)[:, :ns]

    def write_hessian(self, pt):
        """The saddle Hessian [[-chi_pp, -chi_pq], [chi_pq^T, chi_qq]] at a derived point, into hess.

        In rho_bar's eigenbasis V, with A~ = V^dag A V and Lambda from
        ``_dk_weights`` at rho_bar's spectrum,

            chi_pp[x, x']       = -(1/ln 2) sum_ij (rho~_x)_ij (rho~_x')_ji Lambda_ij,
            chi_pq[x, (x', s')] = delta_xx' tr W_x's' (log2 rho_x - log2 rho_bar)
                                  - (p_x' / ln 2) sum_ij (rho~_x)_ij (W~_x's')_ji Lambda_ij:

        p enters chi through rho_bar and linearly through -sum_x p_x S(rho_x),
        and the kernel row x' moves rho_x' and, with weight p_x', rho_bar.
        chi_qq is the point's ``kernel_hessian``.
        """
        nx, ns = self.shape
        h = self.hess
        bar = pt.bar.reshape(nx, ns, -1).view(float)
        rho = (pt.q[:, None] @ bar)[:, 0]
        weighted = rho * pt.lam[-1]
        np.divide(weighted @ rho.T, LN2, out=h[:nx, :nx])
        top = np.multiply(weighted @ bar.reshape(nx * ns, -1).T, pt.p.repeat(ns), out=h[:nx, nx:])
        top /= LN2
        self.own_rows -= pt.ratio
        np.negative(top.T, out=h[nx:, :nx])
        h[nx:, nx:] = pt.kernel_hessian


def _saddle_direction(pt, kernel_grad, system=None):
    """Projected Newton direction (dp, dq) on (p, q) together at a derived point, or None.

    One KKT solve of chi's quadratic model with the gradients d_x and
    kernel_grad, maximized in p and minimized in q: one zero-sum row for p
    and one per kernel row, the p rows negated so that both diagonal blocks
    are convex.  The Hessian is written into the KKT system of the solve's
    ``_SaddleSystem`` (one is built if none is given), gathered once on the
    free entries (``geometry._solve_kkt``).  The kernel entries
    ``_free_entries`` holds stay put.  Letters whose d_x is below the
    maximum and whose p_x is at most min(_HOLD_CAP, |p - project(p + d)|_1)
    go to 0: the bound shrinks with the distance from a stationary point
    (Bertsekas' epsilon-active set), so near the saddle only letters at 0
    are held, while far from it a letter about to leave the support is not
    left to the model, where a nearly duplicated letter makes it steer the
    whole step.  A held letter's move to 0 enters the right-hand side
    through the Hessian; with none held that product is 0 and is skipped.
    The step is scaled so that dp has entries of at most 1, the width of
    the simplex: a nearly flat model would otherwise put every trial step
    far outside it.  None if the system is singular.
    """
    p, d_x = pt.p, pt.d_x
    nx, ns = pt.q.shape
    if system is None:
        system = _SaddleSystem(nx, ns)
    n, keep, rhs = system.n, system.keep, system.rhs
    system.write_hessian(pt)
    keep[nx:n] = _free_entries(pt.q, pt.grad).ravel()
    rhs[:nx] = d_x
    np.negative(kernel_grad, out=rhs[nx:n].reshape(nx, ns))
    step = np.zeros(n)
    keep[:nx] = True
    # the bound is at most _HOLD_CAP, so with every p_x above it no letter is
    # held and the distance from a stationary point need not be computed
    if np.minimum.reduce(p) <= _HOLD_CAP:
        floor = min(_HOLD_CAP, float(np.add.reduce(np.abs(p - project_simplex_rows(p + d_x)))))
        free_p = (p > max(floor, _STEP_FLOOR)) | (d_x == pt.hi)
        keep[:nx] = free_p
        if not np.logical_and.reduce(free_p):
            step[:nx] = np.where(free_p, 0.0, -p)
            rhs[:n] -= system.hess @ step
    rhs[n] = -np.add.reduce(step)
    found = _solve_kkt(system)
    if found is None:
        return None
    step[found[0]] = found[1]
    step /= max(1.0, np.maximum.reduce(np.abs(step[:nx])))
    return step[:nx], step[nx:].reshape(nx, ns)


def _outer_step(pt, inner_iter, gap_stop, width, system):
    """The derived point of one outer step from the derived point pt, or None.

    Tries the projection of (p + t dp, q + t dq) for t = 1, 1/2, ...
    (_STEP_TRIALS lengths) on the ``_saddle_direction`` at pt, each trial
    point one ``project`` of the flat (p, q) through the solve's
    ``_SaddleSystem``, and keeps the first trial point whose bracket is at
    most max(width, half the width of pt's).  At a point at its kernel's
    inner minimum (pt.gap <= gap_stop) a trial not kept is descended to its
    own inner minimum and kept if chi falls by at most gap_stop from pt:
    both minima are known only to the descent's Frank-Wolfe stop, so a
    smaller fall is no loss of phi(p) = min_q chi(p, q), which is concave.
    Compared more finely, every trial was refused on draws whose phi is
    nearly flat between two input letters 1e-6 apart.  At any other point a
    trial not kept ends the step with None, and so does one that leaves p
    where it is: no shorter step moves p either, and the descent alone
    moves q.
    """
    found = _saddle_direction(pt, pt.grad, system)
    if found is None:
        return None
    nx = pt.p.size
    z = np.concatenate([pt.p, pt.q.ravel()])
    move = np.concatenate([found[0], found[1].ravel()])
    keep = max(width, pt.width() / 2)
    t = 1.0
    for _try in range(_STEP_TRIALS):
        trial = system.project(z + t * move)
        p = trial[:nx]
        cand = _Point(pt.states, p, trial[nx:].reshape(pt.q.shape))
        cand.derive()
        if cand.width() <= keep:
            return cand
        if pt.gap > gap_stop or (p == pt.p).all():
            return None
        cand = _descend_kernel(cand, inner_iter, gap_stop)
        if cand.chi >= pt.chi - gap_stop:
            return cand
        t /= 2.0
    return None


def _ascend(states, outer_iter, inner_iter, tol):
    """Newton steps on the saddle from the uniform (p, q), stopped by its bracket.

    Each outer step is one ``_outer_step``.  Where it finds none from a
    point off its kernel's inner minimum, the kernel there is descended to
    that minimum (not an outer step; its chi replaces the point's trace
    entry), the solve ends if that bracket is closed, and else one more
    outer step is tried from the descended point.  Every inner descent
    takes at most inner_iter Newton steps and ends on a Frank-Wolfe gap of
    at most min(_KERNEL_GAP, _KERNEL_SHARE * tol.maxmin_bracket).  The
    bracket, whose lower end is chi minus the point's gap, is checked at
    every point the loop holds.  The solve ends once it is at most
    tol.maxmin_bracket wide ("bracket"), after outer_iter steps
    ("max_iter"), or when no outer step is found ("no_step").  Returns chi
    at the returned point, its p and kernel, its bracket (lo, hi), the
    trace and the stop reason.
    """
    width = tol.maxmin_bracket
    gap_stop = min(_KERNEL_GAP, width * _KERNEL_SHARE)
    nx, ns = states.shape[:2]
    pt = _Point(states, np.full(nx, 1.0 / nx), np.full((nx, ns), 1.0 / ns)).derive()
    if not np.isfinite(pt.chi):
        raise SolverDiverged("non-finite objective at the initial kernel")
    trace = [float(pt.chi)]
    system = _SaddleSystem(nx, ns)
    while True:
        # chi(p, W_Q) is convex in Q, so chi minus the kernel's Frank-Wolfe
        # gap bounds min_Q chi(p, W_Q), hence the max-min value, from below;
        # the value is at most C_Holevo(W_q) <= max_x D(rho_x || rho_bar),
        # the largest entry of d_x (see the module docstring for the floor
        # on rho_bar's spectrum).  Both meet at a saddle point, and both
        # are read from the point, so the bracket costs no LAPACK call
        lo, hi = pt.bracket()
        if hi - lo <= width or len(trace) > outer_iter:
            reason = "bracket" if hi - lo <= width else "max_iter"
            break
        cand = _outer_step(pt, inner_iter, gap_stop, width, system)
        if cand is None and pt.gap > gap_stop:
            pt = _descend_kernel(pt, inner_iter, gap_stop)
            trace[-1] = float(pt.chi)
            lo, hi = pt.bracket()
            if hi - lo <= width:
                reason = "bracket"
                break
            cand = _outer_step(pt, inner_iter, gap_stop, width, system)
        if cand is None:
            reason = "no_step"
            break
        pt = cand
        trace.append(float(pt.chi))
    return pt.chi, pt.p, pt.q, (lo, hi), trace, reason


def _saddle_solve(states, outer_iter, inner_iter, tol):
    """(value, p, q, trace, (lo, hi), stop reason) of the max-min solve on states (X, S, d, d).

    One ``_ascend`` trajectory; its bracket is widened to hold the value by
    at most _BRACKET_ROUNDING.
    """
    if not tol.maxmin_bracket > _BRACKET_ROUNDING:
        raise InvalidArgument(
            f"maxmin_bracket must exceed the bracket rounding {_BRACKET_ROUNDING}, "
            f"got {tol.maxmin_bracket!r}"
        )
    chi, p, q, (lo, hi), trace, reason = _ascend(states, outer_iter, inner_iter, tol)
    value = float(min(max(chi, 0.0), np.log2(states.shape[-1])))
    if not lo - _BRACKET_ROUNDING <= value <= hi + _BRACKET_ROUNDING:
        raise SolverDiverged(f"value {value!r} outside its bracket ({lo!r}, {hi!r})")
    return value, p, q, tuple(trace), (min(lo, value), max(hi, value)), reason


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
    ``_ascend`` checks the bracket at the start, after every outer step
    and after every descent of the held kernel, so a start that is already
    a saddle point costs one evaluated point.  A trajectory that stops
    with its bracket open (after outer_iter steps, or with no outer step
    found) still returns a bracket that holds the value; ``stop_reason``
    names the exit.  ``solver_trace`` holds chi at the start and after
    every outer step; a descent of the held kernel replaces the held
    point's entry with chi after it.  ``bracket`` is (lo, hi) at the
    returned point, and ``certified_gap`` is hi - lo, at every alphabet
    size; the value lies within it of the max-min value.  inner_iter
    bounds every inner descent, the held kernel's and the trial points'.

    The solve draws no random numbers and has one trajectory, so ``seed``,
    ``restarts`` and ``certify`` change nothing.  They are still accepted
    because the benchmark workloads in ``perfbench/`` pass them, and a call
    they made that was refused would fail every workload run.  outer_iter
    and inner_iter must be integers >= 0, or InvalidArgument is raised.
    """
    outer_iter = _integer(outer_iter, "outer_iter", 0)
    inner_iter = _integer(inner_iter, "inner_iter", 0)
    value, p, q, trace, (lo, hi), reason = _saddle_solve(w.states, outer_iter, inner_iter, tol)
    return CapacityResult(
        value=value,
        argmax_p=p,
        argmin_q=JammerKernel(w.x_alphabet, w.s_alphabet, q),
        solver_trace=trace,
        certified_gap=hi - lo,
        bracket=(lo, hi),
        stop_reason=reason,
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
    return entropy_from_eigenvalues(p, floor=DEFAULT_TOL.prob_sum)


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
    # plain np.unique imports numpy.ma on its first call; return_inverse does not
    labels, component = np.unique(roots, return_inverse=True)
    aux = np.eye(len(labels))[component]
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
    return _cr_from_capacity(capacity_informed_jammer(w, tol=tol), src, tol)


def _cr_from_capacity(cap, src, tol):
    """cr_capacity from the channel's solved max-min CapacityResult `cap`,
    so that sources over one channel share one solve."""
    c_star, (lo, hi) = cap.value, cap.bracket
    i_vv = src.mutual_information()
    if i_vv <= c_star + tol.case_tie_band:
        return CrCapacityResult(
            c_star + i_vv, "small_correlation", None, c_star, i_vv, (lo + i_vv, hi + i_vv)
        )
    value, aux, upper = _large_correlation(src.joint, lo, hi)
    return CrCapacityResult(value, "large_correlation", aux, c_star, i_vv, (value, upper))
