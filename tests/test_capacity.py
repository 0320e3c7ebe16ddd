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
from avcqc import capacity
from avcqc.capacity import _aux_objective
from avcqc.config import DEFAULT_TOL, with_overrides
from avcqc.errors import (
    AlphabetMismatch,
    InvalidArgument,
    NonBinarySource,
    ProfileOutOfRange,
    SolverDiverged,
)
from avcqc.operators import random_density, von_neumann_entropy
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
    maxmin_grid_oracle,
    orthogonal_channel,
    random_avcqc,
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
            states = np.stack([random_density(rng, 2) for _ in range(3)])
            w = CqChannel((0, 1, 2), states)
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            lam = rng.uniform()
            mix = lam * p + (1 - lam) * q
            assert holevo_chi(mix, w) >= (
                lam * holevo_chi(p, w) + (1 - lam) * holevo_chi(q, w) - 1e-9
            )


class TestHolevoCapacity:
    def test_orthogonal_states_capacity_one(self):
        w = CqChannel((0, 1), np.stack([ZERO, ONE]))
        val, p = holevo_capacity(w)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)

    def test_matches_direct_maximization_on_grid(self):
        rng = np.random.default_rng(29)
        states = np.stack([random_density(rng, 2) for _ in range(2)])
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
        assert val == capacity_informed_jammer(w, tol=with_overrides(
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
            new_column = np.stack([random_density(rng, 2) for _ in range(2)])[:, None]
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
        # with no Newton candidate accepted the solve stops after its first
        # inner descent, at the uniform input, with an open bracket around
        # the max-min value
        w = self._instance()
        closed = capacity_informed_jammer(w)
        monkeypatch.setattr(capacity, "_newton_ascent", lambda *a: None)
        res = capacity_informed_jammer(w)
        lo, hi = res.bracket
        assert len(res.solver_trace) == 1
        assert np.all(res.argmax_p == 1 / 3)
        assert hi - lo > DEFAULT_TOL.maxmin_bracket
        assert lo <= res.value <= hi
        assert lo <= closed.value <= hi
        ref = dense_saddle_bracket(w.states, res.argmax_p, res.argmin_q.rows)
        assert np.max(np.abs(np.subtract(res.bracket, ref))) <= 1e-10

    def test_bracket_absorbs_rounding_only(self, monkeypatch):
        # the returned bracket is widened to hold the value by rounding
        # only; a bracket that misses chi by more is a solver fault
        w = self._instance()
        ascend = capacity._ascend
        shift = []

        def move_hi_below_chi(*args):
            chi, p, q, (lo, hi), trace = ascend(*args)
            return chi, p, q, (lo, chi - shift[0]), trace

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
        tight = with_overrides(DEFAULT_TOL, maxmin_bracket=1e-10)
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
                                     tol=with_overrides(DEFAULT_TOL, maxmin_bracket=width))

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
    from avcqc.capacity import _log2_from_spectra
    from avcqc.operators import eigh_stack

    def _log2_psd_stack(mats):
        return _log2_from_spectra(*eigh_stack(mats))

    rng = np.random.default_rng(47)
    for d in (2, 3):
        mats = np.stack([random_density(rng, d) for _ in range(10)])
        got = _log2_psd_stack(mats)
        for k in range(10):
            w, v = np.linalg.eigh(mats[k])
            ref = v @ np.diag(np.log2(np.clip(w, 1e-18, None))) @ v.conj().T
            assert np.allclose(got[k], ref, atol=1e-9)
    # degenerate spectrum branch
    mixed = np.broadcast_to(np.eye(2, dtype=complex) / 2, (3, 2, 2))
    got = _log2_psd_stack(mixed)
    assert np.allclose(got, -np.eye(2), atol=1e-12)


def _descent_draw(kind):
    """(states, p, q): a Wishart draw at d = 2 (closed-form spectra), at
    d = 3 (LAPACK), or at d = 3 with one rank-1 state, and an interior point."""
    rng = np.random.default_rng({"d2": 81, "d3": 82, "rank1": 83}[kind])
    w = wishart_avcqc(rng, 3, 3, 2 if kind == "d2" else 3)
    states = np.array(w.states)
    if kind == "rank1":
        states[1, 2] = wishart_state(rng, 3, rank=1)
    return states, rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3)


class TestKernelDescent:
    @pytest.mark.parametrize("kind", ["d2", "d3", "rank1"])
    def test_hessian_matches_finite_differences(self, kind):
        # the Daleckii-Krein Hessian against central differences of the
        # gradient, one kernel entry at a time
        states, p, q = _descent_draw(kind)
        h = capacity._kernel_hessian(p, states, capacity._mixture_spectra(p, states, q))
        step = 1e-6
        fd = np.empty_like(h)
        for k in range(q.size):
            e = np.zeros(q.size)
            e[k] = step
            e = e.reshape(q.shape)
            up, down = (capacity._grad_q(p, states, capacity._mixture_spectra(p, states, q + sgn * e))
                        for sgn in (1.0, -1.0))
            fd[:, k] = ((up - down) / (2.0 * step)).ravel()
        assert np.max(np.abs(h - fd)) <= 1e-6 * np.max(np.abs(h))

    @pytest.mark.parametrize("kind", ["d2", "d3", "rank1"])
    def test_descent_ends_on_its_frank_wolfe_gap(self, kind):
        # the gap recomputed with one np.linalg.eigh per matrix: chi at the
        # returned kernel minus the Frank-Wolfe lower bound there
        states, p, _ = _descent_draw(kind)
        f, q, _, gap = capacity._descend_kernel(states, p, np.full((3, 3), 1.0 / 3), 2000)
        lo, _ = dense_saddle_bracket(states, p, q)
        assert gap <= capacity._KERNEL_GAP
        assert abs((f - lo) - gap) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_row_returns_its_own_spectra(self, dim):
        # the cached spectra belong to the returned kernel, chi is its Holevo
        # quantity, and descents from six starts agree within the gap
        rng = np.random.default_rng(61)
        w = random_avcqc(rng, 2, 3, dim=dim)
        p = rng.dirichlet(np.ones(2))
        values = []
        for q0 in rng.dirichlet(np.ones(3), size=(6, 2)):
            f, q, (wq, _), _ = capacity._descend_kernel(w.states, p, q0, max_iter=300)
            assert np.max(np.abs(wq - capacity._mixture_spectra(p, w.states, q)[0])) <= 1e-12
            kernel = JammerKernel(w.x_alphabet, w.s_alphabet, q)
            assert abs(f - holevo_chi(p, averaged_channel(w, kernel))) <= 1e-12
            values.append(f)
        assert max(values) - min(values) <= capacity._KERNEL_GAP

    def test_gradient_fallback_alone_descends(self, monkeypatch):
        # with every Newton system refused, the projected-gradient fallback
        # still descends toward the Newton descent's minimum
        states, p, _ = _descent_draw("d3")
        start = np.full((3, 3), 1.0 / 3)
        f_newton, _, _, _ = capacity._descend_kernel(states, p, start, max_iter=2000)
        monkeypatch.setattr(capacity, "_newton_direction", lambda *a: None)
        f, q, _, _ = capacity._descend_kernel(states, p, start, max_iter=300)
        lo, _ = dense_saddle_bracket(states, p, q)
        assert f_newton - capacity._KERNEL_GAP <= f <= f_newton + 1e-6
        assert lo <= f_newton + 1e-12

    def test_single_state_takes_no_step(self, monkeypatch):
        # |S| = 1: the kernel is fixed, its gap is 0, and the descent returns
        # from the initial spectra without trying a candidate
        from avcqc import serialize

        w = serialize.load_channel(str(SPECS / "mirror_pair_fixed_channel.json"))
        calls = []
        monkeypatch.setattr(capacity, "_try_kernel", lambda *a: calls.append(a))
        f, q, _, gap = capacity._descend_kernel(w.states, np.array([0.5, 0.5]), np.ones((2, 1)), 2000)
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
    """(kernel, spectra) of the inner minimum, run down to a Frank-Wolfe gap of 1e-14."""
    _, q, spec, _ = capacity._descend_kernel(states, p, q0, 2000, gap_stop=1e-14)
    return q, spec


class TestOuterNewton:
    STEP = 1e-5

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_chi_pp_matches_finite_differences(self, kind):
        # d_x = D(rho_x || rho_bar) at a fixed kernel, one letter at a time
        states, p, q = _outer_draw(kind)
        chi_pp, _ = capacity._input_hessian(p, states, q, capacity._mixture_spectra(p, states, q))
        fd = np.empty_like(chi_pp)
        for k in range(p.size):
            e = np.zeros(p.size)
            e[k] = self.STEP
            up, down = (capacity._grad_p(p + sgn * e, states, q,
                                         capacity._mixture_spectra(p + sgn * e, states, q))
                        for sgn in (1.0, -1.0))
            fd[:, k] = (up - down) / (2.0 * self.STEP)
        assert np.allclose(chi_pp, chi_pp.T, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(chi_pp - fd)) <= 1e-7 * np.max(np.abs(chi_pp))

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_chi_pq_matches_finite_differences(self, kind):
        # d_x at a fixed p along zero-sum moves of one kernel row: the
        # per-row constant of chi_pq drops out
        states, p, q = _outer_draw(kind)
        _, chi_pq = capacity._input_hessian(p, states, q, capacity._mixture_spectra(p, states, q))
        nx, ns = q.shape
        for x in range(nx):
            for s in range(1, ns):
                e = np.zeros(q.shape)
                e[x, s], e[x, 0] = self.STEP, -self.STEP
                up, down = (capacity._grad_p(p, states, q + sgn * e,
                                             capacity._mixture_spectra(p, states, q + sgn * e))
                            for sgn in (1.0, -1.0))
                fd = (up - down) / (2.0 * self.STEP)
                model = chi_pq @ (e.ravel() / self.STEP)
                assert np.max(np.abs(model - fd)) <= 1e-7 * np.max(np.abs(chi_pq))

    @pytest.mark.parametrize("kind", ["interior", "zero_p", "rank2", "duplicate"])
    def test_envelope_hessian_matches_finite_differences(self, kind):
        # the envelope gradient d_x at the re-solved inner minimum, along
        # zero-sum moves of the letters with p_x > 0; the Schur complement
        # is symmetric and negative semidefinite on them
        states, p, q0 = _outer_draw(kind)
        q, spec = _inner_minimum(states, p, q0)
        h = capacity._envelope_hessian(p, states, q, spec)
        used = np.flatnonzero(p > 0.0)
        for k in used[1:]:
            u = np.zeros(p.size)
            u[k], u[used[0]] = 1.0, -1.0
            grads = []
            for sgn in (1.0, -1.0):
                pk = p + sgn * self.STEP * u
                qk, speck = _inner_minimum(states, pk, q)
                grads.append(capacity._grad_p(pk, states, qk, speck))
            fd = (grads[0] - grads[1]) / (2.0 * self.STEP)
            assert np.max(np.abs(h @ u - fd)) <= 1e-7 * np.max(np.abs(h[np.ix_(used, used)]))
        block = h[np.ix_(used, used)]
        assert np.allclose(block, block.T, rtol=0.0, atol=1e-9 * np.max(np.abs(block)))
        centred = np.eye(used.size) - 1.0 / used.size
        assert np.max(np.linalg.eigvalsh(centred @ block @ centred)) <= 1e-9 * np.max(np.abs(block))

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
        spec = capacity._mixture_spectra(p, states, q)
        chi_pp, _ = capacity._input_hessian(p, states, q, spec)
        assert np.allclose(capacity._envelope_hessian(p, states, q, spec), chi_pp,
                           rtol=0.0, atol=1e-12 * np.max(np.abs(chi_pp)))

    def test_upper_end_holds_on_a_rank_deficient_mixture(self):
        # every state inside one 2-dimensional subspace of C^3: rho_bar's
        # third eigenvalue is floored at 1e-18, which moves hi by at most
        # d 1e-18 / ln 2 from max_x D(rho_x || rho_bar) taken on the support;
        # hi stays above chi, and the value is that of the channel at d = 2
        states, _, _ = _outer_draw("rank2")
        chi, p, q, (lo, hi), _ = capacity._ascend(states, 400, 120, DEFAULT_TOL)
        assert lo <= chi <= hi
        rho_x = np.einsum("xs,xsij->xij", q, states[:, :, :2, :2])
        log_bar = _log2m(np.einsum("x,xij->ij", p, rho_x))
        on_support = max(np.real(np.trace(r @ (_log2m(r) - log_bar))) for r in rho_x)
        assert abs(hi - on_support) <= 1e-12
        res3 = capacity_informed_jammer(Avcqc((0, 1, 2), (0, 1, 2), states))
        res2 = capacity_informed_jammer(Avcqc((0, 1, 2), (0, 1, 2), states[:, :, :2, :2]))
        assert res3.bracket[0] <= res3.value <= res3.bracket[1]
        assert abs(res3.value - res2.value) <= DEFAULT_TOL.maxmin_bracket


def _log2m(m):
    """Matrix log base 2 of a full-rank density matrix, one np.linalg.eigh."""
    lam, vec = np.linalg.eigh(m)
    return (vec * np.log2(lam)) @ vec.conj().T
