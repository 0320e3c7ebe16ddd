from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from avcqc import (
    Avcqc,
    CorrelatedSource,
    CorrelationLengthProfile,
    CqChannel,
    JammerKernel,
    averaged_channel,
    capacity_informed_jammer,
    cr_capacity,
    cr_rate_limited_lower_bound,
    holevo_capacity,
    holevo_chi,
    min_chi_over_jammer,
)
from avcqc import capacity, geometry
from avcqc.capacity import _aux_objective
from avcqc.config import DEFAULT_TOL
from avcqc.errors import (
    AlphabetMismatch,
    InvalidArgument,
    NonBinarySource,
    ProfileOutOfRange,
    SolverDiverged,
)
from avcqc.operators import von_neumann_entropy
from helpers import (
    ONE,
    PLUS,
    ZERO,
    aux_channel_search,
    binary_entropy,
    bitflip_channel,
    constant_channel,
    dense_saddle_bracket,
    flip_source,
    kkt_matrix,
    maxmin_grid_oracle,
    orthogonal_channel,
    random_avcqc,
    saddle_direction_reference,
    saddle_hessian_reference,
    wishart_avcqc,
    wishart_state,
)

SPECS = Path(__file__).resolve().parents[1] / "specs"


def assert_matches_oracle(w, res):
    """The grid oracle lies within 5e-3 of the value, and the value inside its bracket."""
    oracle = maxmin_grid_oracle(w)
    assert oracle is not None
    assert abs(res.value - oracle) <= 5e-3, f"value {res.value}, oracle {oracle}"
    lo, hi = res.bracket
    assert lo <= res.value <= hi


class TestHolevoChi:
    def test_orthogonal_pure_states(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        assert holevo_chi([0.5, 0.5], w) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        w = CqChannel((0, 1), np.stack([PLUS, PLUS]))
        assert holevo_chi([0.3, 0.7], w) == pytest.approx(0.0, abs=1e-12)

    def test_zero_plus_ensemble(self):
        # pure states: chi equals the entropy of the mixture (2x2 eigen oracle)
        lam = (1 + 2 ** -0.5) / 2
        expected = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
        w = CqChannel((0, 1), np.stack([ZERO, PLUS]))
        assert holevo_chi([0.5, 0.5], w) == pytest.approx(expected, abs=1e-12)

    def test_alphabet_mismatch(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        with pytest.raises(AlphabetMismatch):
            holevo_chi([0.5, 0.25, 0.25], w)

    def test_concavity_in_input_distribution(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            states = np.stack([wishart_state(rng, 2) for _ in range(3)])
            w = CqChannel((0, 1, 2), states)
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            lam = rng.uniform()
            mix = lam * p + (1 - lam) * q
            assert holevo_chi(mix, w) >= (
                lam * holevo_chi(p, w) + (1 - lam) * holevo_chi(q, w) - 1e-9
            )


class TestBoundaryValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_holevo_chi_refuses_non_finite(self, bad):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        with pytest.raises(InvalidArgument, match=r"^at \[1\]: entry .* is not finite"):
            holevo_chi([1.0, bad], w)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_min_chi_refuses_non_finite(self, bad):
        with pytest.raises(InvalidArgument, match=r"^at \[0\]: entry .* is not finite"):
            min_chi_over_jammer(bitflip_channel(), [bad, 1.0])

    def test_min_chi_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch, match="distribution over 3 letters, channel has 2"):
            min_chi_over_jammer(bitflip_channel(), [0.5, 0.25, 0.25])

    @pytest.mark.parametrize("budget", [{"outer_iter": -1}, {"inner_iter": -1},
                                        {"outer_iter": -3, "inner_iter": -2}])
    def test_negative_step_budget_refused(self, budget):
        name, value = next(iter(budget.items()))  # outer_iter is checked first
        with pytest.raises(InvalidArgument, match=f"{name} must be an integer >= 0, got {value}"):
            capacity_informed_jammer(bitflip_channel(), **budget)

    def test_zero_step_budgets_accepted(self):
        res = capacity_informed_jammer(bitflip_channel(), outer_iter=0, inner_iter=0)
        assert res.bracket[0] <= res.value <= res.bracket[1]


class TestHolevoCapacity:
    def test_orthogonal_states_capacity_one(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        val, p = holevo_capacity(w)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)

    def test_matches_direct_maximization_on_grid(self):
        rng = np.random.default_rng(29)
        states = np.stack([wishart_state(rng, 2) for _ in range(2)])
        w = CqChannel((0, 1), states)
        val, _ = holevo_capacity(w)
        grid = max(
            holevo_chi([t, 1 - t], w) for t in np.linspace(0.0, 1.0, 2001)
        )
        assert val == pytest.approx(grid, abs=1e-6)

    def test_single_state_draw_closes_its_sandwich(self, monkeypatch):
        # default_rng(4) 3x1 d2: the mirror step crawled through 405 outer
        # steps here; the Newton step of Blahut-Arimoto closes the sandwich
        # chi(p) <= C <= max_x D(W(x) || rho_bar) to 1e-9 in a few
        w = wishart_avcqc(np.random.default_rng(4), 3, 1, 2)
        fixed = CqChannel(w.x_alphabet, w.states[:, 0])
        runs = []
        ascend = capacity._ascend

        def spy(*args):
            runs.append(ascend(*args))
            return runs[-1]

        monkeypatch.setattr(capacity, "_ascend", spy)
        val, p = holevo_capacity(fixed)
        assert len(runs) == 1 and len(runs[0][4]) - 1 <= 8
        lo, hi = dense_saddle_bracket(w.states, p, np.ones((3, 1)))
        assert lo - 1e-12 <= val <= hi and hi - lo <= 1e-9
        assert val == capacity_informed_jammer(w, tol=replace(
            DEFAULT_TOL, maxmin_bracket=1e-9)).value


class TestMinChiOverJammer:
    def test_trivial_single_state(self):
        states = np.stack([[ZERO], [ONE]])
        w = Avcqc((0, 1), ("s",), states)
        val, q = min_chi_over_jammer(w, [0.5, 0.5])
        assert val == pytest.approx(1.0, abs=1e-9)
        assert q.rows.shape == (2, 1)

    def test_bitflip_symmetrized_to_zero(self):
        w = bitflip_channel()
        val, q = min_chi_over_jammer(w, [0.5, 0.5])
        assert val == pytest.approx(0.0, abs=1e-8)
        # the minimizing kernel mixes both outputs to the same state
        avg = averaged_channel(w, q)
        assert np.allclose(avg.states[0], avg.states[1], atol=1e-4)

    def test_jammer_independent_channel_unchanged(self):
        w = orthogonal_channel()
        p = [0.25, 0.75]
        val, _ = min_chi_over_jammer(w, p)
        fixed = CqChannel((0, 1), w.states[:, 0])
        assert val == pytest.approx(holevo_chi(p, fixed), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_descent_reaches_its_frank_wolfe_bound(self, seed):
        # chi is convex in the kernel, so the Frank-Wolfe bound at the
        # returned kernel is a lower bound on the minimum: the one descent
        # from the uniform kernel lands within 1e-4 of it
        rng = np.random.default_rng(seed)
        w = wishart_avcqc(rng, 3, 3, 3)
        p = rng.dirichlet(np.ones(3))
        val, q = min_chi_over_jammer(w, p)
        lo, _ = dense_saddle_bracket(w.states, p, q.rows)
        assert lo - 1e-12 <= val <= lo + 1e-4


class TestCapacityInformedJammer:
    def test_orthogonal_channel(self):
        w = orthogonal_channel()
        res = capacity_informed_jammer(w, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(res.argmax_p, [0.5, 0.5], atol=1e-4)
        assert_matches_oracle(w, res)

    def test_bitflip_channel_zero(self):
        w = bitflip_channel()
        res = capacity_informed_jammer(w, seed=0)
        assert res.value <= 1e-6
        assert_matches_oracle(w, res)

    def test_constant_channel_zero(self):
        res = capacity_informed_jammer(constant_channel(), seed=0)
        assert res.value <= 1e-9

    def test_single_state_certified(self):
        w = Avcqc((0, 1), ("s",), np.stack([[ZERO], [ONE]]))
        res = capacity_informed_jammer(w, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert_matches_oracle(w, res)

    def test_single_input_certified(self):
        w = Avcqc((0,), ("a", "b"), np.stack([[ZERO, ONE]]))
        res = capacity_informed_jammer(w, seed=0)
        assert res.value <= 1e-9
        assert_matches_oracle(w, res)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(31)
        for k in range(5):
            w = random_avcqc(rng)
            res = capacity_informed_jammer(w, seed=k)
            assert_matches_oracle(w, res)

    def test_upper_bounded_by_deterministic_kernels(self):
        rng = np.random.default_rng(37)
        for k in range(5):
            w = random_avcqc(rng)
            res = capacity_informed_jammer(w, seed=k)
            for s0 in range(2):
                for s1 in range(2):
                    rows = np.zeros((2, 2))
                    rows[0, s0] = 1.0
                    rows[1, s1] = 1.0
                    fixed = averaged_channel(w, JammerKernel((0, 1), (0, 1), rows))
                    cap, _ = holevo_capacity(fixed)
                    assert res.value <= cap + 1e-6

    def test_monotone_in_jammer_alphabet(self):
        rng = np.random.default_rng(41)
        for k in range(5):
            base = random_avcqc(rng, ns=2)
            new_column = np.stack([wishart_state(rng, 2) for _ in range(2)])[:, None]
            enlarged = Avcqc(
                (0, 1), (0, 1, 2), np.concatenate([base.states, new_column], axis=1)
            )
            small = capacity_informed_jammer(base, seed=k).value
            big = capacity_informed_jammer(enlarged, seed=k).value
            assert big <= small + 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        w = random_avcqc(rng)
        a = capacity_informed_jammer(w, seed=123)
        b = capacity_informed_jammer(w, seed=123)
        assert a.value == b.value
        assert np.array_equal(a.argmax_p, b.argmax_p)
        assert np.array_equal(a.argmin_q.rows, b.argmin_q.rows)
        assert a.solver_trace == b.solver_trace


class TestSaddleBracket:
    @staticmethod
    def _instance():
        return wishart_avcqc(np.random.default_rng(71), 3, 3, 3)

    def test_closed_bracket_leaves_restarts_unused(self):
        w = self._instance()
        one = capacity_informed_jammer(w, seed=3, restarts=1)
        many = capacity_informed_jammer(w, seed=3, restarts=32)
        lo, hi = many.bracket
        assert hi - lo <= DEFAULT_TOL.maxmin_bracket
        assert lo <= many.value <= hi
        assert one.value == many.value
        assert np.array_equal(one.argmax_p, many.argmax_p)
        assert np.array_equal(one.argmin_q.rows, many.argmin_q.rows)
        assert one.solver_trace == many.solver_trace
        assert one.bracket == many.bracket

    def test_one_step_solve_returns_an_open_bracket(self):
        # the uniform start of this draw is not a saddle point: one outer
        # step leaves the bracket open, and it still holds the max-min value
        w = self._instance()
        res = capacity_informed_jammer(w, outer_iter=1)
        lo, hi = res.bracket
        assert len(res.solver_trace) == 2
        assert hi - lo > DEFAULT_TOL.maxmin_bracket
        assert lo <= res.value <= hi
        closed = capacity_informed_jammer(w)
        assert closed.certified_gap <= DEFAULT_TOL.maxmin_bracket
        assert lo <= closed.value <= hi
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_rejected_newton_step_ends_the_trajectory(self, monkeypatch):
        # with no outer step found the solve descends the uniform start's
        # kernel to its inner minimum, finds no step from there either and
        # stops at the uniform input, with an open bracket around the
        # max-min value
        w = self._instance()
        closed = capacity_informed_jammer(w)
        monkeypatch.setattr(capacity, "_outer_step", lambda *a: None)
        res = capacity_informed_jammer(w)
        lo, hi = res.bracket
        assert len(res.solver_trace) == 1
        assert np.all(res.argmax_p == 1 / 3)
        assert hi - lo > DEFAULT_TOL.maxmin_bracket
        assert lo <= res.value <= hi
        assert lo <= closed.value <= hi
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_refused_step_after_the_hand_over_keeps_its_descent(self, monkeypatch):
        # no outer step is found from this draw's start, so the kernel is
        # descended to its inner minimum; with no outer step from there
        # either, the solve returns the descended kernel and its own bracket
        w = self._instance()
        gap_stop = min(capacity._KERNEL_GAP, capacity._KERNEL_SHARE * DEFAULT_TOL.maxmin_bracket)
        start = capacity._Point(w.states, np.full(3, 1 / 3), np.full((3, 3), 1 / 3))
        descended = capacity._descend_kernel(start, 120, gap_stop)
        monkeypatch.setattr(capacity, "_outer_step", lambda *a: None)
        res = capacity_informed_jammer(w)
        assert res.stop_reason == "no_step" and res.solver_trace == (res.value,)
        assert np.array_equal(res.argmin_q.rows, descended.q)
        assert res.bracket == descended.bracket()
        assert res.value - res.bracket[0] <= gap_stop
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_step_budget_reports_max_iter(self):
        # one outer step leaves this draw's bracket open: the solve says it
        # ran out of steps, and its bracket still holds the max-min value
        w = self._instance()
        res = capacity_informed_jammer(w, outer_iter=1)
        lo, hi = res.bracket
        assert res.stop_reason == "max_iter"
        assert hi - lo > DEFAULT_TOL.maxmin_bracket
        closed = capacity_informed_jammer(w)
        assert closed.stop_reason == "bracket"
        assert lo <= res.value <= hi and lo <= closed.value <= hi

    def test_rejected_newton_step_reports_no_step(self, monkeypatch):
        w = self._instance()
        monkeypatch.setattr(capacity, "_outer_step", lambda *a: None)
        res = capacity_informed_jammer(w)
        assert res.stop_reason == "no_step"
        assert res.bracket[1] - res.bracket[0] > DEFAULT_TOL.maxmin_bracket

    def test_bracket_absorbs_rounding_only(self, monkeypatch):
        # the returned bracket is widened to hold the value by rounding
        # only; a bracket that misses chi by more is a solver fault
        w = self._instance()
        ascend = capacity._ascend
        shift = []

        def move_hi_below_chi(*args):
            chi, p, q, (lo, hi), trace, reason = ascend(*args)
            return chi, p, q, (lo, chi - shift[0]), trace, reason

        monkeypatch.setattr(capacity, "_ascend", move_hi_below_chi)
        shift.append(1e-14)
        res = capacity_informed_jammer(w)
        assert res.bracket[1] == res.value
        shift[0] = 1e-3
        with pytest.raises(SolverDiverged, match="outside its bracket"):
            capacity_informed_jammer(w)

    @pytest.mark.parametrize("outer_iter", [1, 400])
    def test_bracket_matches_dense_eigh(self, outer_iter):
        w = self._instance()
        res = capacity_informed_jammer(w, outer_iter=outer_iter)
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_roadmap_6x4_draw_closes(self):
        # default_rng(5) drawn in the order 2x2 d2, 3x2 d2, 2x3 d2, 3x3 d3,
        # 4x4 d4, 5x5 d3, 6x4 d4; the last one left a 0.10 wide bracket
        # after the 32-start batch
        rng = np.random.default_rng(5)
        for shape in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 3), (4, 4, 4), (5, 5, 3)]:
            wishart_avcqc(rng, *shape)
        w = wishart_avcqc(rng, 6, 4, 4)
        res = capacity_informed_jammer(w, seed=0)
        lo, hi = res.bracket
        assert hi - lo <= DEFAULT_TOL.maxmin_bracket
        assert lo <= res.value <= hi

    def test_requested_width_closes_the_seven_roadmap_draws(self):
        # default_rng(5) drawn in the order 2x2 d2, 3x2 d2, 2x3 d2, 3x3 d3,
        # 4x4 d4, 5x5 d3, 6x4 d4: the mirror step took up to 732 outer steps
        # to a 1e-10 bracket; each closes in at most 12, inside the default
        # solve's bracket
        tight = replace(DEFAULT_TOL, maxmin_bracket=1e-10)
        rng = np.random.default_rng(5)
        for shape in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 3), (4, 4, 4), (5, 5, 3), (6, 4, 4)]:
            w = wishart_avcqc(rng, *shape)
            res = capacity_informed_jammer(w, tol=tight)
            lo, hi = res.bracket
            assert res.certified_gap <= 1e-10 and lo <= res.value <= hi
            assert len(res.solver_trace) - 1 <= 12
            coarse = capacity_informed_jammer(w).bracket
            assert coarse[0] <= res.value <= coarse[1]

    @pytest.mark.parametrize("width", [1e-12, 0.0, float("nan")])
    def test_width_within_the_bracket_rounding_is_refused(self, width):
        with pytest.raises(InvalidArgument, match="maxmin_bracket"):
            capacity_informed_jammer(orthogonal_channel(),
                                     tol=replace(DEFAULT_TOL, maxmin_bracket=width))

    def test_zero_capacity_is_positive_zero(self):
        from avcqc import serialize

        for name in ("bitflip", "constant"):
            w = serialize.load_channel(str(SPECS / f"{name}_channel.json"))
            res = capacity_informed_jammer(w)
            assert res.value == 0.0 and not np.signbit(res.value)
            assert not np.any(np.signbit(res.bracket))
        src = serialize.load_source(str(SPECS / "perfect_source.json"))
        res = cr_capacity(serialize.load_channel(str(SPECS / "constant_channel.json")), src)
        assert res.maxmin_value == 0.0 and not np.signbit(res.maxmin_value)


class TestCrCapacity:
    def test_constant_channel_perfect_correlation(self):
        # zero budget: H(K) with K = V' = V, witnessed by the identity
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        res = cr_capacity(constant_channel(), src)
        assert res.case_tag == "large_correlation"
        assert res.value == 1.0 and res.bracket == (1.0, 1.0)
        assert res.aux_channel.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_constant_channel_noisy_source_zero(self):
        # a joint with full support has a trivial common part: exactly 0
        src = CorrelatedSource((0, 1), (0, 1), [[3 / 8, 1 / 8], [1 / 8, 3 / 8]])
        res = cr_capacity(constant_channel(), src)
        assert res.case_tag == "large_correlation"
        assert res.value == 0.0 and not np.signbit(res.value)
        assert res.bracket == (0.0, 0.0)
        assert res.aux_channel.tolist() == [[1.0], [1.0]]

    def test_orthogonal_channel_independent_source(self):
        src = CorrelatedSource((0, 1), (0, 1), [[0.25, 0.25], [0.25, 0.25]])
        res = cr_capacity(orthogonal_channel(), src)
        assert res.case_tag == "small_correlation"
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_reduces_to_capacity_when_independent(self):
        rng = np.random.default_rng(43)
        w = random_avcqc(rng)
        src = CorrelatedSource((0, 1), (0, 1), [[0.18, 0.42], [0.12, 0.28]])
        assert src.mutual_information() == pytest.approx(0.0, abs=1e-12)
        res = cr_capacity(w, src)
        cap = capacity_informed_jammer(w, seed=7).value
        assert res.value == pytest.approx(cap, abs=1e-6)

    def test_case_two_witness_is_feasible(self):
        src = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        res = cr_capacity(constant_channel(), src)
        i_uvp, i_uv = _aux_objective(src.joint, res.aux_channel[None])
        assert i_uvp[0] - i_uv[0] <= res.maxmin_value + 1e-6
        assert i_uvp[0] == pytest.approx(res.value, abs=1e-6)


class TestLargeCorrelation:
    # ROADMAP item 1's six draws: rng = default_rng(3), then six times a
    # Dirichlet joint and a budget R ~ U(0, 0.1).  lo is pinned to 1e-9;
    # the search oracle (seed 8, slack 1e-9) ends 7e-5 and 1e-4 below the
    # envelope's feasible point on draws 4 and 5.
    PINNED_LO = (0.009653436, 0.012844743, 0.074179460, 0.030124507, 0.126033486, 0.091707591)

    @staticmethod
    def _six_draws():
        rng = np.random.default_rng(3)
        for _ in range(6):
            joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
            yield CorrelatedSource((0, 1), (0, 1), joint), rng.uniform(0, 0.1)

    def test_six_draws_close_and_beat_the_search(self):
        for n, ((src, r), want) in enumerate(zip(self._six_draws(), self.PINNED_LO)):
            lo, aux, hi = capacity._large_correlation(src.joint, r, r)
            assert lo == pytest.approx(want, abs=1e-9)
            assert hi - lo <= 1e-6
            i_uvp, i_uv = _aux_objective(src.joint, aux[None])
            assert i_uvp[0] - i_uv[0] <= r + 1e-12
            assert i_uvp[0] == pytest.approx(lo, abs=1e-12)
            search = aux_channel_search(src, r, seed=8)[0]
            assert search <= hi
            if n in (4, 5):
                assert lo - search >= 5e-5

    @pytest.mark.parametrize("lam", [1.0, 1.2, 2.0, 5.0, 50.0])
    def test_minorant_lies_below_h(self, lam):
        # h_lam(x) = (1 - lam) H(x) + lam (H(xT) - <x, H(T)>) on a uniform
        # grid and geometric ones into the end cells (the first node is at
        # 1.5e-7) against the piecewise-linear interpolation of the vertices
        # (the lower one where two share an x)
        rng = np.random.default_rng(17)
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        (xl, al, kl), (xr, ar, kr), *_ = capacity._dual_tables(joint)
        xv, yv = np.concatenate([xl, xr]), np.concatenate([al - lam * kl, ar - lam * kr])
        order = np.lexsort((yv, xv))
        xv, yv = xv[order], yv[order]
        keep = np.concatenate([[True], np.diff(xv) > 0])
        ends = np.geomspace(1e-12, 1e-3, 2_000)
        x = np.sort(np.concatenate([np.linspace(0.0, 1.0, 200_001), ends, 1.0 - ends]))
        t = joint / joint.sum(axis=1, keepdims=True)

        def ent(p):
            return -np.sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0), axis=-1)

        px = np.outer(1 - x, t[0]) + np.outer(x, t[1])
        lin = (1 - x) * ent(t[0]) + x * ent(t[1])
        h = (1 - lam) * ent(np.stack([1 - x, x], axis=-1)) + lam * (ent(px) - lin)
        assert np.all(np.interp(x, xv[keep], yv[keep]) <= h + 1e-12)

    def test_zero_lower_budget_is_gacs_korner(self):
        # F(lo) for lo = 0 is H(K), here 0 for a source of full support; the
        # upper end is the dual's at hi
        src = flip_source(0.2)
        _, _, hi = capacity._large_correlation(src.joint, 0.05, 0.05)
        zero, aux, upper = capacity._large_correlation(src.joint, 0.0, 0.05)
        assert zero == 0.0 and aux.tolist() == [[1.0], [1.0]] and upper == hi

    def test_gacs_korner_columns_follow_ascending_roots(self):
        # three components, {v'0, v2}, {v'1, v'3, v0}, {v'2, v1}: each row's
        # union-find root is its column node nvp + v, so the roots are
        # [6, 4, 5, 4] and the first row lands in the last column
        joint = np.array([[0.0, 0.0, 0.1], [0.2, 0.0, 0.0], [0.0, 0.3, 0.0], [0.4, 0.0, 0.0]])
        value, aux = capacity._gacs_korner(joint)
        roots = np.array([6, 4, 5, 4])
        want = (roots[:, None] == np.unique(roots)).astype(float)
        assert aux.dtype == want.dtype and aux.shape == want.shape
        assert aux.tobytes() == want.tobytes()
        assert value == pytest.approx(-sum(m * np.log2(m) for m in (0.6, 0.3, 0.1)), abs=1e-15)

    def test_past_h_vv_the_identity_is_exact(self):
        # a budget of at least H(V'|V) admits U = V': F = H(V') at both ends
        src = flip_source(0.01)
        lo, aux, hi = capacity._large_correlation(src.joint, 0.5, 0.5)
        assert lo == pytest.approx(1.0, abs=1e-12) and hi == pytest.approx(1.0, abs=1e-12)
        assert aux.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_three_letter_sender_with_positive_budget_is_refused(self):
        # orthogonal channel: C* = 1 > 0; the source carries log2(3) > 1 bits
        src = CorrelatedSource((0, 1, 2), (0, 1, 2), np.eye(3) / 3)
        with pytest.raises(NonBinarySource, match=r"\|V'\| = 2"):
            cr_capacity(orthogonal_channel(), src)

    def test_three_letter_sender_at_zero_budget(self):
        # the constant channel's bracket is (0, 0): H(K) for any alphabet
        joint = np.array([[0.2, 0.1, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.4]])
        res = cr_capacity(constant_channel(), CorrelatedSource((0, 1, 2), (0, 1, 2), joint))
        assert res.case_tag == "large_correlation"
        assert res.value == pytest.approx(-(0.3 * np.log2(0.3) + 0.7 * np.log2(0.7)), abs=1e-15)
        assert res.aux_channel.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]


class TestRateLimitedBound:
    def test_vanishing_fraction_gives_capacity(self):
        profile = CorrelationLengthProfile(50.0, 60.0, 0.0)
        got = cr_rate_limited_lower_bound(
            orthogonal_channel(), flip_source(0.1), profile
        )
        cap = capacity_informed_jammer(orthogonal_channel(), seed=0).value
        assert got == pytest.approx(cap, abs=1e-9)

    def test_constant_channel_guard_path(self):
        profile = CorrelationLengthProfile(4.0, 5.0, 0.25)
        got = cr_rate_limited_lower_bound(
            constant_channel(), flip_source(0.1), profile
        )
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_channel_composition(self):
        from avcqc import binary_avc_positivity, build_g_pair, induced_binary_avc, separation_test

        w = orthogonal_channel()
        src = flip_source(0.1)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp, seed=1)
        rate = binary_avc_positivity(induced_binary_avc(cert, w, src, gp))["rate_r"]
        r_pp = 3.0 / rate
        profile = CorrelationLengthProfile(r_pp + 1.0, r_pp + 2.0, 0.25)
        got = cr_rate_limited_lower_bound(w, src, profile)
        cap = capacity_informed_jammer(w, seed=0).value
        assert got == pytest.approx(0.75 * cap + 0.25 * r_pp, abs=1e-6)

    def test_three_letter_wishart_composition(self):
        # |X| = |S| = 3: past the reach of any kernel grid under the default
        # enumeration cap, the induced channel's intervals are exact
        from avcqc import binary_avc_positivity, build_g_pair, induced_binary_avc, separation_test

        w = wishart_avcqc(np.random.default_rng(0), 3, 3, 2)
        src = flip_source(0.05)
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp, seed=1)
        pos = binary_avc_positivity(induced_binary_avc(cert, w, src, gp))
        assert pos["positive"] and pos["rate_r"] > 0.0
        r_pp = 3.0 / pos["rate_r"]
        profile = CorrelationLengthProfile(r_pp + 1.0, r_pp + 2.0, 0.25)
        got = cr_rate_limited_lower_bound(w, src, profile)
        cap = capacity_informed_jammer(w, seed=0).value
        assert got == pytest.approx(0.75 * cap + 0.25 * r_pp, abs=1e-6)

    def test_profile_window_enforced(self):
        w = orthogonal_channel()
        src = flip_source(0.1)
        profile = CorrelationLengthProfile(0.5, 0.6, 0.25)  # below r'' for any rate <= 1
        with pytest.raises(ProfileOutOfRange):
            cr_rate_limited_lower_bound(w, src, profile)


class TestCertifiedGap:
    @pytest.mark.parametrize("name", ["bitflip", "constant", "orthogonal", "mirror_pair_fixed"])
    def test_saddle_start_costs_one_inner_descent(self, name):
        # the uniform (P, Q) start is a saddle point of each spec: its
        # bracket closes before the first outer step
        from avcqc import serialize

        w = serialize.load_channel(str(SPECS / f"{name}_channel.json"))
        res = capacity_informed_jammer(w, seed=7)
        assert len(res.solver_trace) == 1
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket

    def test_gap_is_bracket_width_past_the_oracle(self):
        # |X| = |S| = 4: beyond the grid oracle's reach
        w = wishart_avcqc(np.random.default_rng(5), 4, 4, 4)
        res = capacity_informed_jammer(w, seed=0)
        lo, hi = res.bracket
        assert res.certified_gap is not None
        assert res.certified_gap == hi - lo
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket


def test_grid_oracle_certifies_known_values():
    assert maxmin_grid_oracle(orthogonal_channel()) == pytest.approx(1.0, abs=1e-9)
    assert maxmin_grid_oracle(bitflip_channel()) == pytest.approx(0.0, abs=1e-9)


def test_matrix_log_matches_eigendecomposition():
    # the solver builds no matrix log: it reads tr W log2 sigma as diagonal
    # traces of the rotated states against sigma's floored log2 spectrum.
    # With q = 1 on the first column, rho_x = W_x0, and the traces against
    # rho_x and rho_bar match the matrix logs of one np.linalg.eigh each
    def log2m(m):
        w, v = np.linalg.eigh(m)
        return v @ np.diag(np.log2(np.clip(w, 1e-18, None))) @ v.conj().T

    def traces(states, p):
        q = np.zeros(states.shape[:2])
        q[:, 0] = 1.0
        pt = capacity._Point(states, p, q).derive()
        log_bar = log2m(np.einsum("x,xij->ij", p, states[:, 0]))
        ref = np.array([[np.real(np.trace(m @ (log2m(row[0]) - log_bar))) for m in row]
                        for row in states])
        return pt.ratio, ref

    rng = np.random.default_rng(47)
    for d in (2, 3):
        mats = np.stack([wishart_state(rng, d) for _ in range(10)])
        got, ref = traces(mats.reshape(5, 2, d, d), np.full(5, 0.2))
        assert np.allclose(got, ref, atol=1e-9)
    # degenerate spectrum branch: rho_x = rho_bar = I / 2, log2 of which is -I
    mixed = np.broadcast_to(np.eye(2, dtype=complex) / 2, (3, 2, 2, 2))
    got, ref = traces(mixed, np.full(3, 1 / 3))
    assert np.allclose(got, ref, atol=1e-12)
    pure = np.stack([np.stack([ZERO, ONE])] * 2)
    pt = capacity._Point(pure, np.array([0.5, 0.5]), np.full((2, 2), 0.5)).derive()
    assert np.allclose(pt.ratio, 0.0, atol=1e-12) and np.allclose(pt.d_x, 0.0, atol=1e-12)


def _descent_draw(kind):
    """(states, p, q): a Wishart draw at d = 2, at d = 3, or at d = 3 with
    one rank-1 state, and an interior point."""
    rng = np.random.default_rng({"d2": 81, "d3": 82, "rank1": 83}[kind])
    w = wishart_avcqc(rng, 3, 3, 2 if kind == "d2" else 3)
    states = np.array(w.states)
    if kind == "rank1":
        states[1, 2] = wishart_state(rng, 3, rank=1)
    return states, rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3)


# (|X|, |S|, d) of the face draws: 30 Wishart draws each, of default_rng
# seeded with the shape.  Many have a zero max-min value, where the jammer
# makes the letters' outputs coincide on a whole face of kernels; a kernel
# step halved from a full Newton step that crosses the face used to stall
# on 34 of the 90, leaving brackets up to 0.24 bits wide
_FACE_SHAPES = [(2, 6, 2), (3, 6, 2), (2, 10, 3)]


@cache
def _face_draws():
    draws = []
    for shape in _FACE_SHAPES:
        rng = np.random.default_rng(list(shape))
        draws += [wishart_avcqc(rng, *shape) for _ in range(30)]
    return tuple(draws)


def _spy_spectra(monkeypatch):
    """The arguments (p, states, q) of every ``_mixture_spectra`` call from now on."""
    calls = []
    real = capacity._mixture_spectra
    monkeypatch.setattr(capacity, "_mixture_spectra", lambda *a: calls.append(a) or real(*a))
    return calls


class TestKernelDescent:
    @pytest.mark.parametrize("kind", ["d2", "d3", "rank1"])
    def test_hessian_matches_finite_differences(self, kind):
        # the Daleckii-Krein Hessian against central differences of the
        # gradient, one kernel entry at a time
        states, p, q = _descent_draw(kind)
        h = capacity._Point(states, p, q).derive().kernel_hessian
        step = 1e-6
        fd = np.empty_like(h)
        for k in range(q.size):
            e = np.zeros(q.size)
            e[k] = step
            e = e.reshape(q.shape)
            up, down = (capacity._Point(states, p, q + sgn * e).derive().grad
                        for sgn in (1.0, -1.0))
            fd[:, k] = ((up - down) / (2.0 * step)).ravel()
        assert np.max(np.abs(h - fd)) <= 1e-6 * np.max(np.abs(h))

    @pytest.mark.parametrize("kind", ["d2", "d3", "rank1"])
    def test_descent_ends_on_its_frank_wolfe_gap(self, kind):
        # the gap recomputed with one np.linalg.eigh per matrix: chi at the
        # returned kernel minus the Frank-Wolfe lower bound there
        states, p, _ = _descent_draw(kind)
        pt = capacity._descend_kernel(capacity._Point(states, p, np.full((3, 3), 1.0 / 3)), 2000)
        f, q, gap = pt.chi, pt.q, pt.gap
        lo, _ = dense_saddle_bracket(states, p, q)
        assert gap <= capacity._KERNEL_GAP
        assert abs((f - lo) - gap) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_row_returns_its_own_spectra(self, dim):
        # the returned point's spectra belong to its kernel, chi is its Holevo
        # quantity, and descents from six starts agree within the gap
        rng = np.random.default_rng(61)
        w = random_avcqc(rng, 2, 3, dim=dim)
        p = rng.dirichlet(np.ones(2))
        values = []
        for q0 in rng.dirichlet(np.ones(3), size=(6, 2)):
            pt = capacity._descend_kernel(capacity._Point(w.states, p, q0), max_iter=300)
            f, q, wq = pt.chi, pt.q, pt.spec[0]
            assert np.max(np.abs(wq - capacity._mixture_spectra(p, w.states, q)[0])) <= 1e-12
            kernel = JammerKernel(w.x_alphabet, w.s_alphabet, q)
            assert abs(f - holevo_chi(p, averaged_channel(w, kernel))) <= 1e-12
            values.append(f)
        assert max(values) - min(values) <= capacity._KERNEL_GAP

    def test_face_draws_end_on_their_frank_wolfe_gap(self):
        # min_chi_over_jammer at the uniform input: chi at the returned kernel
        # lies within _KERNEL_GAP of the Frank-Wolfe bound recomputed with one
        # np.linalg.eigh per matrix, also where the minimizing kernels fill a face
        for w in _face_draws():
            p = np.full(len(w.x_alphabet), 1.0 / len(w.x_alphabet))
            val, q = min_chi_over_jammer(w, p)
            lo, _ = dense_saddle_bracket(w.states, p, q.rows)
            assert lo - 1e-12 <= val <= lo + capacity._KERNEL_GAP + 1e-12

    def test_refused_newton_system_stops_on_its_gap(self, monkeypatch):
        # with every Newton system refused, the descent returns its start
        # kernel and that kernel's gap, which still bounds the minimum below
        states, p, _ = _descent_draw("d3")
        start = np.full((3, 3), 1.0 / 3)
        f_newton = capacity._descend_kernel(capacity._Point(states, p, start), max_iter=2000).chi
        monkeypatch.setattr(geometry, "_solve_kkt", lambda *a: None)
        pt = capacity._descend_kernel(capacity._Point(states, p, start), max_iter=300)
        f, q, gap = pt.chi, pt.q, pt.gap
        lo, _ = dense_saddle_bracket(states, p, start)
        assert np.array_equal(q, start)
        assert abs((f - lo) - gap) <= 1e-12
        assert f - gap <= f_newton + 1e-12

    def test_descent_from_an_evaluated_point_reuses_it(self, monkeypatch):
        # the descent never evaluates its start again, and a start already
        # on its gap stop is returned as it is
        states, p, _ = _descent_draw("d3")
        start = capacity._Point(states, p, np.full((3, 3), 1.0 / 3))
        evaluated = _spy_spectra(monkeypatch)
        done = capacity._descend_kernel(start, 2000)
        assert evaluated and not any(np.array_equal(a[2], start.q) for a in evaluated)
        evaluated.clear()
        assert capacity._descend_kernel(done, 2000) is done and evaluated == []

    def test_single_state_takes_no_step(self, monkeypatch):
        # |S| = 1: the kernel is fixed, its gap is 0, and the descent returns
        # from the initial spectra without trying a candidate
        from avcqc import serialize

        w = serialize.load_channel(str(SPECS / "mirror_pair_fixed_channel.json"))
        start = capacity._Point(w.states, np.array([0.5, 0.5]), np.ones((2, 1)))
        calls = _spy_points(monkeypatch)
        pt = capacity._descend_kernel(start, 2000)
        f, q, gap = pt.chi, pt.q, pt.gap
        assert calls == [] and gap == 0.0
        assert np.array_equal(q, np.ones((2, 1)))
        assert f == pytest.approx(holevo_chi([0.5, 0.5], CqChannel(w.x_alphabet, w.states[:, 0])))

    def test_hard_draw_closes(self):
        # value 3.0e-5: with the mirror step capped at 50 its bracket stayed
        # open at 4.7e-6 after all 32 legs
        w = wishart_avcqc(np.random.default_rng(15550441), 3, 3, 2)
        res = capacity_informed_jammer(w)
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
        lo, hi = res.bracket
        assert lo <= res.value <= hi

    # values computed by the solver before the spectra were shared between
    # chi and its gradients (random_avcqc draw, dim 3, solver seed 5)
    @pytest.mark.parametrize(
        "draw, nx, ns, value",
        [(101, 2, 2, 0.07461112138531556), (102, 3, 3, 0.08965928715106974)],
    )
    def test_seeded_solve_matches_pinned_value(self, draw, nx, ns, value):
        w = random_avcqc(np.random.default_rng(draw), nx, ns, dim=3)
        res = capacity_informed_jammer(w, seed=5)
        assert abs(res.value - value) <= 1e-9


def _spy_newton(monkeypatch, accept=None):
    """The (last state, steps, reason) of every kernel descent's ``_projected_newton`` run
    from now on; with accept given, each run takes that accept test instead of its own."""
    runs = []
    real = geometry._projected_newton

    def spy(state, parts, at, own_accept, *rest):
        runs.append(real(state, parts, at, accept or own_accept, *rest))
        return runs[-1]

    monkeypatch.setattr(capacity, "_projected_newton", spy)
    return runs


class TestProjectedNewtonStops:
    # the kernel descent's runs of the one projected Newton loop, driven
    # into each of its four stop reasons

    def test_open_gap_closes(self, monkeypatch):
        states, p, _ = _descent_draw("d3")
        runs = _spy_newton(monkeypatch)
        pt = capacity._descend_kernel(capacity._Point(states, p, np.full((3, 3), 1.0 / 3)), 2000)
        [(last, steps, reason)] = runs
        assert last is pt and reason == "gap" and 0 < steps < 2000
        assert pt.gap <= capacity._KERNEL_GAP

    def test_one_step_budget_stops_on_it(self, monkeypatch):
        # the first face draw whose descent from the uniform kernel takes
        # more than one step, given a budget of one
        runs = _spy_newton(monkeypatch)
        for w in _face_draws():
            nx, ns = w.states.shape[:2]
            start = capacity._Point(w.states, np.full(nx, 1.0 / nx), np.full((nx, ns), 1.0 / ns))
            capacity._descend_kernel(start, 2000)
            if runs[-1][1] > 1:
                break
        pt = capacity._descend_kernel(start, 1)
        last, steps, reason = runs[-1]
        assert last is pt and pt is not start and reason == "max_iter" and steps == 1
        assert pt.gap > capacity._KERNEL_GAP

    def test_refused_kkt_system_is_singular(self, monkeypatch):
        states, p, _ = _descent_draw("d3")
        monkeypatch.setattr(geometry, "_solve_kkt", lambda *a: None)
        runs = _spy_newton(monkeypatch)
        start = capacity._Point(states, p, np.full((3, 3), 1.0 / 3))
        assert capacity._descend_kernel(start, 300) is start
        assert [r[1:] for r in runs] == [(0, "singular")]

    def test_refused_trials_leave_no_step(self, monkeypatch):
        # every length is tried and refused: 1, the blocking length and its
        # halvings, each a different projected point
        states, p, _ = _descent_draw("d3")
        tried = []
        runs = _spy_newton(monkeypatch, accept=lambda state, cand: tried.append(cand))
        start = capacity._Point(states, p, np.full((3, 3), 1.0 / 3))
        assert capacity._descend_kernel(start, 300) is start
        assert [r[1:] for r in runs] == [(0, "no_step")]
        assert len(tried) == geometry._STEP_TRIALS
        assert len({c.tobytes() for c in tried}) == len(tried)


def _outer_draw(kind):
    """(states, p, q0) at d = 3 for the outer Hessian checks: an interior p,
    a p with a zero entry, every state inside one 2-dimensional subspace
    (rank-deficient rho_bar), or a duplicated jammer letter (singular chi_qq)."""
    rng = np.random.default_rng({"interior": 91, "zero_p": 92, "rank2": 93, "duplicate": 94}[kind])
    if kind == "rank2":
        states = np.zeros((3, 3, 3, 3), dtype=complex)
        states[:, :, :2, :2] = np.array(wishart_avcqc(rng, 3, 3, 2).states)
    else:
        states = np.array(wishart_avcqc(rng, 3, 3, 3).states)
    if kind == "duplicate":
        states[:, 2] = states[:, 0]
    p = rng.dirichlet(np.ones(3))
    if kind == "zero_p":
        p = np.array([p[0] + p[1], 0.0, p[2]])
    return states, p, rng.dirichlet(np.ones(3), size=3)


def _inner_minimum(states, p, q0):
    """The derived point of the inner minimum, run down to a Frank-Wolfe gap of 1e-14."""
    return capacity._descend_kernel(capacity._Point(states, p, q0), 2000, gap_stop=1e-14)


def _input_hessian(pt):
    """chi_pp and chi_pq at a derived point, read from the saddle Hessian
    [[-chi_pp, -chi_pq], [chi_pq^T, chi_qq]] that the solver writes."""
    nx, ns = pt.q.shape
    system = capacity._SaddleSystem(nx, ns)
    system.write_hessian(pt)
    return -system.hess[:nx, :nx], -system.hess[:nx, nx:]


def _envelope_hessian(pt):
    """Hessian of phi(p) = min_q chi(p, q) at an inner minimizer: the Schur complement
    chi_pp - chi_pq chi_qq^-1 chi_qp over the free kernel entries, under their row
    constraints, which the solver's joint KKT solve eliminates without forming it."""
    chi_pp, chi_pq = _input_hessian(pt)
    nx, ns = pt.q.shape
    free = capacity._free_entries(pt.q, pt.grad).ravel()
    kkt = kkt_matrix(pt.kernel_hessian[free][:, free], np.arange(nx).repeat(ns)[free], nx)
    nf = int(free.sum())
    rhs = np.zeros((kkt.shape[0], pt.p.size))
    rhs[:nf] = -chi_pq[:, free].T
    return chi_pp + chi_pq[:, free] @ np.linalg.solve(kkt, rhs)[:nf]


def _assert_newton_step(pt, h, used):
    """``_saddle_direction`` at pt, with the kernel's own gradient left out, moves p
    by the Newton step of the model with the gradient d_x and the Hessian h on
    the letters used, scaled to entries of at most 1; the solver's KKT shift of
    1e-12 times the largest diagonal entry moves it by about 3e-11 of its size.
    Its kernel move keeps every row's sum."""
    n = used.size
    kkt = np.block([[-h[np.ix_(used, used)], np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
    ref = np.zeros(pt.p.size)
    ref[used] = np.linalg.solve(kkt, np.concatenate([pt.d_x[used], [0.0]]))[:n]
    ref /= max(1.0, np.max(np.abs(ref)))
    dp, dq = capacity._saddle_direction(pt, np.zeros_like(pt.grad))
    assert np.max(np.abs(dp - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.max(np.abs(dq.sum(axis=1))) <= 1e-12


class TestOuterNewton:
    STEP = 1e-5

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_chi_pp_matches_finite_differences(self, kind):
        # d_x = D(rho_x || rho_bar) at a fixed kernel, one letter at a time
        states, p, q = _outer_draw(kind)
        chi_pp, _ = _input_hessian(capacity._Point(states, p, q).derive())
        fd = np.empty_like(chi_pp)
        for k in range(p.size):
            e = np.zeros(p.size)
            e[k] = self.STEP
            up, down = (capacity._Point(states, p + sgn * e, q).derive().d_x
                        for sgn in (1.0, -1.0))
            fd[:, k] = (up - down) / (2.0 * self.STEP)
        assert np.allclose(chi_pp, chi_pp.T, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(chi_pp - fd)) <= 1e-7 * np.max(np.abs(chi_pp))

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_chi_pq_matches_finite_differences(self, kind):
        # d_x at a fixed p along zero-sum moves of one kernel row: the
        # per-row constant of chi_pq drops out
        states, p, q = _outer_draw(kind)
        _, chi_pq = _input_hessian(capacity._Point(states, p, q).derive())
        nx, ns = q.shape
        for x in range(nx):
            for s in range(1, ns):
                e = np.zeros(q.shape)
                e[x, s], e[x, 0] = self.STEP, -self.STEP
                up, down = (capacity._Point(states, p, q + sgn * e).derive().d_x
                            for sgn in (1.0, -1.0))
                fd = (up - down) / (2.0 * self.STEP)
                model = chi_pq @ (e.ravel() / self.STEP)
                assert np.max(np.abs(model - fd)) <= 1e-7 * np.max(np.abs(chi_pq))

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_envelope_hessian_matches_finite_differences(self, kind):
        # the envelope gradient d_x at the re-solved inner minimum, along
        # zero-sum moves of the letters with p_x > 0; the Schur complement
        # is symmetric and negative semidefinite on them, and the input
        # direction is its Newton step there
        states, p, q0 = _outer_draw(kind)
        pt = _inner_minimum(states, p, q0)
        h = _envelope_hessian(pt)
        used = np.flatnonzero(p > 0.0)
        for k in used[1:]:
            u = np.zeros(p.size)
            u[k], u[used[0]] = 1.0, -1.0
            grads = []
            for sgn in (1.0, -1.0):
                pk = p + sgn * self.STEP * u
                grads.append(_inner_minimum(states, pk, pt.q).d_x)
            fd = (grads[0] - grads[1]) / (2.0 * self.STEP)
            assert np.max(np.abs(h @ u - fd)) <= 1e-7 * np.max(np.abs(h[np.ix_(used, used)]))
        block = h[np.ix_(used, used)]
        assert np.allclose(block, block.T, rtol=0.0, atol=1e-9 * np.max(np.abs(block)))
        centred = np.eye(used.size) - 1.0 / used.size
        assert np.max(np.linalg.eigvalsh(centred @ block @ centred)) <= 1e-9 * np.max(np.abs(block))
        _assert_newton_step(pt, h, used)

    @pytest.mark.parametrize("seed", range(4))
    def test_nearly_duplicated_input_letter_closes(self, seed):
        # letter 5 is 0.999 letter 0 + 0.001 letter 4 and the jammer letter
        # is duplicated: phi is nearly flat along e_0 - e_5 and chi_qq is
        # singular.  The capped direction and the held letters keep the
        # Newton step in use (the mirror step took 28 to 2,010 outer steps)
        base = wishart_avcqc(np.random.default_rng(seed), 5, 1, 3).states
        states = np.concatenate([base, base], axis=1)
        states = np.concatenate([states, 0.999 * states[:1] + 0.001 * states[-1:]], axis=0)
        res = capacity_informed_jammer(Avcqc(tuple(range(6)), (0, 1), states))
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
        assert len(res.solver_trace) - 1 <= 10

    @pytest.mark.parametrize("seed, nx, ns, d", [(0, 3, 3, 3), (0, 4, 2, 2), (3, 3, 3, 3),
                                                 (4, 4, 2, 2)])
    def test_near_duplicate_pure_letters_close(self, seed, nx, ns, d):
        # input letter 1 is 1e-6 away from letter 0 under every jammer letter,
        # and all states are pure, so phi is nearly flat between them.  An
        # outer candidate is compared to the accuracy of the inner minima,
        # the kernel's Frank-Wolfe stop of 1e-9; compared at 1e-13, every
        # Newton candidate is rejected and the bracket stays open
        rng = np.random.default_rng(seed)
        states = np.array([[wishart_state(rng, d, rank=1) for _ in range(ns)] for _ in range(nx)])
        states[1] = (1 - 1e-6) * states[0] + 1e-6 * states[1]
        res = capacity_informed_jammer(Avcqc(tuple(range(nx)), tuple(range(ns)), states))
        lo, hi = res.bracket
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
        assert lo <= res.value <= hi
        ref = dense_saddle_bracket(states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_single_state_hessian_is_chi_pp(self):
        # |S| = 1: the kernel cannot respond, and the outer step is a Newton
        # step of Blahut-Arimoto on chi_pp
        states, p, _ = _outer_draw("interior")
        states, q = states[:, :1], np.ones((3, 1))
        pt = capacity._Point(states, p, q).derive()
        chi_pp, _ = _input_hessian(pt)
        assert np.allclose(_envelope_hessian(pt), chi_pp,
                           rtol=0.0, atol=1e-12 * np.max(np.abs(chi_pp)))
        _assert_newton_step(pt, chi_pp, np.arange(3))

    def test_upper_end_holds_on_a_rank_deficient_mixture(self):
        # every state inside one 2-dimensional subspace of C^3: rho_bar's
        # third eigenvalue is floored at 1e-18, which moves hi by at most
        # d 1e-18 / ln 2 from max_x D(rho_x || rho_bar) taken on the support;
        # hi stays above chi, and the value is that of the channel at d = 2
        states, _, _ = _outer_draw("rank2")
        chi, p, q, (lo, hi), _, _ = capacity._ascend(states, 400, 120, DEFAULT_TOL)
        assert lo <= chi <= hi
        rho_x = np.einsum("xs,xsij->xij", q, states[:, :, :2, :2])
        log_bar = _log2m(np.einsum("x,xij->ij", p, rho_x))
        on_support = max(np.real(np.trace(r @ (_log2m(r) - log_bar))) for r in rho_x)
        assert abs(hi - on_support) <= 1e-12
        res3 = capacity_informed_jammer(Avcqc((0, 1, 2), (0, 1, 2), states))
        res2 = capacity_informed_jammer(Avcqc((0, 1, 2), (0, 1, 2), states[:, :, :2, :2]))
        assert res3.bracket[0] <= res3.value <= res3.bracket[1]
        assert abs(res3.value - res2.value) <= DEFAULT_TOL.maxmin_bracket


def _branch_point(kind):
    """A derived point at which the outer step's direction takes one branch: a held input
    letter, kernel entries held at 0, |S| = 1, |X| = 1, or a singular KKT system (zero
    operators for states, whose saddle Hessian is exactly 0)."""
    if kind == "held letter":
        # letter 2 repeats letter 0, which rho_bar lies close to, at p_2 = 0
        states, _, q = _outer_draw("interior")
        states[2], q[2] = states[0], q[0]
        p = np.array([0.8, 0.2, 0.0])
    elif kind == "held kernel entries":
        states, p, _ = _outer_draw("interior")
        q = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]])
    elif kind == "single state":
        states, p, q = _outer_draw("interior")
        states, q = states[:, :1], np.ones((3, 1))
    elif kind == "single input":
        states, _, q = _outer_draw("interior")
        states, p, q = states[:1], np.ones(1), q[:1]
    else:
        states = np.zeros((2, 2, 2, 2), dtype=complex)
        p, q = np.array([0.3, 0.7]), np.array([[0.4, 0.6], [0.9, 0.1]])
    pt = capacity._Point(states, p, q).derive()
    held_p = (pt.p == 0.0) & (pt.d_x < pt.d_x.max())
    held_q = ~capacity._free_entries(pt.q, pt.grad)
    assert held_p.any() == (kind == "held letter")
    assert held_q.any() == (kind == "held kernel entries")
    return pt


_BRANCHES = ["held letter", "held kernel entries", "single state", "single input", "singular"]


class TestSaddleAssembly:
    """The outer step's one bordered KKT matrix, gathered once on the free entries, gives
    the direction of the np.block assembly with its KKT matrix built afresh, bit for bit."""

    @pytest.mark.parametrize("kind", _BRANCHES)
    def test_written_hessian_is_the_block_assembly(self, kind):
        pt = _branch_point(kind)
        nx, ns = pt.q.shape
        system = capacity._SaddleSystem(nx, ns)
        system.write_hessian(pt)
        assert np.array_equal(system.hess, saddle_hessian_reference(pt))

    @pytest.mark.parametrize("kind", _BRANCHES)
    def test_direction_matches_the_fresh_assembly(self, kind):
        pt = _branch_point(kind)
        for kernel_grad in (pt.grad, np.zeros_like(pt.grad)):
            got = capacity._saddle_direction(pt, kernel_grad)
            ref = saddle_direction_reference(pt, kernel_grad)
            if kind == "singular":
                assert got is None and ref is None
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_one_system_serves_every_direction_of_a_solve(self, monkeypatch):
        # the seed-1 maxmin-solve draws: every direction of each solve, from
        # the one system the solve builds, is the fresh assembly's
        real, seen = capacity._saddle_direction, []

        def checked(pt, kernel_grad, system=None):
            got = real(pt, kernel_grad, system)
            ref = saddle_direction_reference(pt, kernel_grad)
            assert (got is None) == (ref is None)
            assert got is None or all(np.array_equal(a, b) for a, b in zip(got, ref))
            seen.append(system)
            return got

        monkeypatch.setattr(capacity, "_saddle_direction", checked)
        for w in _maxmin_solve_draws():
            before = len(seen)
            capacity_informed_jammer(w)
            assert len({id(system) for system in seen[before:]}) == 1
        assert len(seen) >= 17


def _log2m(m):
    """Matrix log base 2 of a full-rank density matrix, one np.linalg.eigh."""
    lam, vec = np.linalg.eigh(m)
    return (vec * np.log2(lam)) @ vec.conj().T


def _spy_outer_steps(monkeypatch):
    """Log of the solver's calls: "direction" per outer step, "descend" per inner descent."""
    log = []
    for name, tag in (("_saddle_direction", "direction"), ("_descend_kernel", "descend")):
        def spy(*args, _real=getattr(capacity, name), _tag=tag, **kwargs):
            log.append(_tag)
            return _real(*args, **kwargs)
        monkeypatch.setattr(capacity, name, spy)
    return log


class TestCandidateExit:
    def test_closing_candidate_skips_the_last_inner_descent(self, monkeypatch):
        # the seed-1 maxmin-solve job solver-2x2-d3-12: the step from the
        # uniform start is refused and its kernel descended once; the trial
        # point of the next direction already closes the bracket, so no
        # inner descent runs after the last direction; the bracket reported
        # is that point's own, recomputed with one np.linalg.eigh per matrix
        w = _maxmin_solve_draws()[14]
        log = _spy_outer_steps(monkeypatch)
        res = capacity_informed_jammer(w)
        last = len(log) - 1 - log[::-1].index("direction")
        assert "descend" not in log[last:] and log.count("descend") == 1
        assert res.stop_reason == "bracket" and len(res.solver_trace) == 2
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_open_candidate_keeps_the_trajectory(self, monkeypatch):
        # on the wishart_3x3_d2 spec the step from the uniform start is
        # refused and its kernel descended; from there on no trial point
        # halves the bracket, so each kept step is a trial point descended
        # to its inner minimum first, and the trace has 3 entries
        from avcqc import serialize

        w = serialize.load_channel(str(SPECS / "wishart_3x3_d2_channel.json"))
        log = _spy_outer_steps(monkeypatch)
        res = capacity_informed_jammer(w)
        assert len(res.solver_trace) == 3
        assert log[:2] == ["direction", "descend"] and log[-1] == "descend"
        assert log.count("direction") == 3
        assert all(log[k + 1] == "descend" for k, tag in enumerate(log) if tag == "direction")


def _maxmin_solve_draws():
    """The instances of the maxmin-solve benchmark workload at seed 1: the
    pinned 4x4 d=4 and 3x3 d=3 draws, then fifteen 2x2 d=3 draws of one
    generator, which draws each job's solver seed after its instance."""
    draws = [wishart_avcqc(np.random.default_rng([2024, *shape]), *shape)
             for shape in ((4, 4, 4), (3, 3, 3))]
    rng = np.random.default_rng([1, 1])
    for _ in range(15):
        draws.append(wishart_avcqc(rng, 2, 2, 3))
        rng.integers(2**31)
    return draws


def _spy_points(monkeypatch):
    """The arguments of every ``_Point`` built from now on: one evaluated point, one
    ``eigh_stack``, each."""
    evaluated = []

    class CountedPoint(capacity._Point):
        def __init__(self, *args):
            evaluated.append(args)
            super().__init__(*args)

    monkeypatch.setattr(capacity, "_Point", CountedPoint)
    return evaluated


# (|X|, |S|, d) of the budget draws: 25 Wishart draws each, in this order, of
# one default_rng(12345)
_BUDGET_SHAPES = [(2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 2, 2), (2, 3, 3), (4, 4, 3)]


class TestSolverBudget:
    def test_benchmark_draws_close_on_few_points(self, monkeypatch):
        # the 17 solves evaluated 185 points (one eigh_stack each) when every
        # outer step waited for the kernel's inner minimum, and 87 with the
        # joint Newton steps on (p, q); each bracket is the point's own
        evaluated = _spy_points(monkeypatch)
        for w in _maxmin_solve_draws():
            res = capacity_informed_jammer(w)
            assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
            ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
            assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10
        assert len(evaluated) <= 0.6 * 185

    def test_wishart_draws_close_on_few_points(self, monkeypatch):
        # the 150 draws evaluated 1,992 points when every outer step waited
        # for the kernel's inner minimum, and 1,124 when a refused joint step
        # handed the solve over for good to the steps on phi(p) = min_q chi
        rng = np.random.default_rng(12345)
        draws = [wishart_avcqc(rng, *shape) for shape in _BUDGET_SHAPES for _ in range(25)]
        evaluated = _spy_points(monkeypatch)
        for w in draws:
            res = capacity_informed_jammer(w)
            assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
            ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
            assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10
        assert len(evaluated) <= 1030

    def test_near_duplicate_letters_spec_closes_in_few_steps(self, monkeypatch):
        # the bracket closes in 10 outer steps, 11 trace entries (31 steps
        # when every outer step waited for the kernel's inner minimum), on
        # at most 41 evaluated points (46 with the one-way hand-over)
        from avcqc import serialize

        w = serialize.load_channel(str(SPECS / "near_duplicate_letters_channel.json"))
        evaluated = _spy_points(monkeypatch)
        res = capacity_informed_jammer(w)
        assert res.certified_gap <= DEFAULT_TOL.maxmin_bracket
        assert len(res.solver_trace) <= 12
        assert len(evaluated) <= 41


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, r = np.linalg.qr(z)
    return u * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Wishart draws of default_rng(3), in this order: past |X|, |S| <= 3, where
# the grid oracle gives up
_PAST_THE_ORACLE = [(4, 4, 3), (6, 3, 4), (8, 2, 2), (5, 5, 2), (4, 4, 6)]


def _past_the_oracle_draws():
    rng = np.random.default_rng(3)
    return [wishart_avcqc(rng, *shape) for shape in _PAST_THE_ORACLE]


class TestPastTheOracle:
    def test_value_lies_in_the_dense_bracket(self):
        # the test-side saddle certificate, from one np.linalg.eigh per
        # matrix, at the returned (argmax_p, argmin_q); the face draws run
        # alongside, each closing its bracket
        for w in _past_the_oracle_draws() + list(_face_draws()):
            res = capacity_informed_jammer(w)
            lo, hi = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
            assert lo - 1e-12 <= res.value <= hi + 1e-12
            assert hi - lo <= DEFAULT_TOL.maxmin_bracket
            assert res.stop_reason == "bracket"

    def test_unitary_rotation_moves_the_value_by_rounding_only(self):
        # V W V^dag for every state leaves chi and its bracket at a fixed
        # (p, q) unchanged.  At the returned point, five Haar unitaries per
        # draw move them by far less than the _BRACKET_ROUNDING (1e-12) by
        # which the returned bracket may be widened to hold the value.  The
        # rotated solves need not follow the same trajectory (an earlier
        # solver spread the 5x5 d2 draw's values by 5.9e-12, this one by
        # 3.3e-16), but their brackets all hold
        # the one max-min value, so any two meet up to that rounding
        rng = np.random.default_rng(17)
        for w in _past_the_oracle_draws():
            res = capacity_informed_jammer(w)
            p, q = res.argmax_p, res.argmin_q.rows
            base = capacity._Point(w.states, p, q).derive()
            for _ in range(5):
                v = _haar_unitary(rng, w.dim)
                rotated = v @ w.states @ v.conj().T
                pt = capacity._Point(rotated, p, q).derive()
                moved = np.subtract((pt.chi, *pt.bracket()), (base.chi, *base.bracket()))
                assert np.max(np.abs(moved)) <= 1e-13
                other = capacity_informed_jammer(Avcqc(w.x_alphabet, w.s_alphabet, rotated))
                lo, hi = max(res.bracket[0], other.bracket[0]), min(res.bracket[1], other.bracket[1])
                assert lo <= hi + 1e-12
