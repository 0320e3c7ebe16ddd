from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from avcqc import geometry
from avcqc.capacity import _aux_objective
from avcqc.cli import _demo_source
from avcqc.errors import DimensionMismatch, InvalidArgument
from avcqc.geometry import affine_set_distance, embed_stack
from avcqc.separation import _block_weights, build_g_pair
from helpers import (
    bitflip_channel,
    compositions,
    constant_channel,
    encoder_generators,
    flip_source,
    kernel_grid,
    kkt_matrix,
    pattern_search,
    projected_gradient_distance,
    separable_instance,
    simplex_grid,
)


def recursive_compositions(k, total):
    """Reference: the recursive enumerator, first part varying slowest."""
    if k == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in recursive_compositions(k - 1, total - first)
    ]


class TestCompositions:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_recursive_reference(self, k):
        for total in range(12):
            assert compositions(k, total).tolist() == [
                list(c) for c in recursive_compositions(k, total)
            ]

    def test_grids_are_built_on_compositions(self):
        rows = simplex_grid(3, 4)
        assert np.array_equal(rows * 4, compositions(3, 4))
        grid = kernel_grid(2, 3, 4)
        assert grid.shape == (len(rows) ** 2, 2, 3)
        assert np.allclose(grid.sum(axis=-1), 1.0)

    @pytest.mark.parametrize("nx, ns, steps", [(1, 3, 4), (2, 3, 16), (3, 2, 8), (3, 3, 4)])
    def test_kernel_grid_matches_product_reference(self, nx, ns, steps):
        # reference: the itertools.product enumeration of row-index tuples
        rows = simplex_grid(ns, steps)
        ref = rows[np.array(list(iproduct(range(rows.shape[0]), repeat=nx)))]
        grid = kernel_grid(nx, ns, steps)
        assert grid.shape == ref.shape and grid.tobytes() == ref.tobytes()


def pair_generators(w, src):
    """The separation test's generator matrices (D, |X||S|) of g0 and g1."""
    gp = build_g_pair(src, w.x_alphabet)
    embedded = embed_stack(w.states)
    return [encoder_generators(embedded, wgt)
            for wgt in _block_weights(src, (gp.g0, gp.g1), gp.iota, w.x_alphabet)]


class TestAffineSetDistance:
    def test_duplicated_generators_keep_the_distance(self):
        # repeating a column inside its row leaves every convex hull as it
        # was, but makes the Gram matrix singular
        rng = np.random.default_rng(8)
        gen0, gen1 = rng.standard_normal((5, 6)), rng.standard_normal((5, 4)) + 0.5
        dist = affine_set_distance(gen0, gen1, 3, 2)[0]
        dup0 = gen0[:, [0, 1, 2, 0, 3, 4, 5, 5]]                # rows of 4
        dup1 = gen1[:, [0, 1, 1, 2, 2, 3]]                      # rows of 3
        gram = np.concatenate([dup0, -dup1], axis=1)
        assert np.linalg.matrix_rank(gram.T @ gram) < gram.shape[1]
        d, lower, q0, q1 = affine_set_distance(dup0, dup1, 4, 3)
        assert d == pytest.approx(dist, abs=1e-12)
        assert lower <= d and d**2 - lower**2 <= 1e-12
        assert np.allclose(q0.reshape(2, 4).sum(axis=1), 1.0) and q0.min() >= 0.0
        assert np.allclose(q1.reshape(2, 3).sum(axis=1), 1.0) and q1.min() >= 0.0

    @pytest.mark.parametrize(
        "seed, dim, row_len, rows, shift", [(2, 3, 3, (2, 2), 0.0), (125, 15, 5, (5, 7), 3.0)]
    )
    def test_random_pairs_close_their_gap(self, seed, dim, row_len, rows, shift):
        # seed 2: a rank-3 Gram matrix on 12 entries, where a descent that
        # halves its step only halves the blocking entry and stalled 0.05
        # above the distance.  Seed 125: sets about 70 apart, where comparing
        # f(candidate) with f(z) reads the rounding of f near 5e3 as a rise
        # and stopped 0.13 above it
        rng = np.random.default_rng(seed)
        gen0 = rng.standard_normal((dim, rows[0] * row_len))
        gen1 = rng.standard_normal((dim, rows[1] * row_len)) + shift
        dist, lower, _, _ = affine_set_distance(gen0, gen1, row_len, row_len)
        assert dist**2 - lower**2 <= 1e-12 * max(1.0, dist**2)
        q = rng.dirichlet(np.ones(row_len), size=(2000, sum(rows))).reshape(2000, -1)
        pts = q @ np.concatenate([gen0, -gen1], axis=1).T
        assert np.linalg.norm(pts, axis=1).min() >= lower

    @pytest.mark.parametrize("channel", [constant_channel, bitflip_channel])
    def test_intersecting_sets_close_at_the_uniform_start(self, monkeypatch, channel):
        calls = []
        project = geometry.project_simplex_rows
        monkeypatch.setattr(
            geometry, "project_simplex_rows", lambda y: calls.append(y) or project(y)
        )
        gen0, gen1 = pair_generators(channel(), flip_source(0.1))
        dist, lower, q0, q1 = affine_set_distance(gen0, gen1, 2, 2)
        assert calls == []                                      # no step taken
        assert 0.0 <= lower <= dist <= 1e-15
        assert np.array_equal(q0, np.full(q0.size, 0.5)) and np.array_equal(q1, q0)

    def test_largest_block_draw_closes_in_three_steps(self):
        # |X| = 5, d = 3 at iota = 4: the largest separation draw of the
        # finite-block benchmark, 144-dimensional generators
        w, src = separable_instance(np.random.default_rng([2024, 5, 3]), 5, 3)
        gen0, gen1 = pair_generators(w, src)
        assert gen0.shape == gen1.shape == (144, 10)
        dist, lower, _, _ = affine_set_distance(gen0, gen1, 2, 2, max_iter=3)
        assert dist**2 - lower**2 <= 1e-12
        assert dist == pytest.approx(affine_set_distance(gen0, gen1, 2, 2)[0], abs=1e-15)


def near_twin_generators(seed):
    """(gen0, gen1, row_len0, row_len1): gen1's columns repeat gen0's up to 1e-9, each
    scaled by 10^U(0, 4), so that the Gram matrix is near-singular along the repeats."""
    rng = np.random.default_rng([seed])
    dim = int(rng.integers(3, 8))
    r0, r1 = (int(v) for v in rng.integers(2, 5, size=2))
    m0, m1 = (int(v) for v in rng.integers(2, 4, size=2))
    gen0 = rng.standard_normal((dim, m0 * r0))
    gen1 = gen0[:, rng.integers(0, m0 * r0, size=m1 * r1)]
    gen1 = (gen1 + 1e-9 * rng.standard_normal(gen1.shape)) * 10.0 ** rng.uniform(0, 4, size=m1 * r1)
    return gen0, gen1, r0, r1


class TestProjectedNewton:
    def test_projection_onto_its_own_point_stops_before_a_trial(self):
        # a zero gradient under an open gap gives the direction 0, whose
        # projected point is z itself: the solve stops without an accept test
        z = np.array([0.2, 0.8, 0.5, 0.5])
        tried = []
        last, steps, reason = geometry._projected_newton(
            z, ((slice(0, 2), 2), (slice(2, 4), 2)),
            lambda state: (state, np.zeros(4), 1.0, lambda: np.eye(4)),
            lambda state, cand: tried.append(cand), 100, 0.0)
        assert last is z and (steps, reason) == (0, "no_step") and tried == []


class TestNearTwinGenerators:
    @pytest.mark.parametrize("seed", [63, 106, 185])
    def test_open_gap_keeps_the_lower_bound_sound(self, monkeypatch, seed):
        # sets 40-165 apart whose solve stops with its gap open (gap/f of
        # 0.26-0.82), its distance about 4% above the one 20,000
        # projected-gradient steps reach: the lower end still holds, and the
        # stop reads "gap" only where the gap at the returned point is closed
        runs = []
        real = geometry._projected_newton
        monkeypatch.setattr(geometry, "_projected_newton",
                            lambda *a: runs.append(real(*a)) or runs[-1])
        gens = near_twin_generators(seed)
        dist, lower, _, _ = affine_set_distance(*gens)
        [((_, _, f, _, gap), _, reason)] = runs
        assert 0.0 < lower <= dist == np.sqrt(f)
        assert lower <= projected_gradient_distance(*gens, 2000)
        assert (reason == "gap") == (gap <= geometry._GAP_STOP)


@st.composite
def ragged_rows(draw):
    """Rows of unequal widths, with ties, signed zeros and entries far outside the simplex."""
    entry = st.one_of(st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
                      st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-17]))
    widths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    return [np.array(draw(st.lists(entry, min_size=k, max_size=k))) for k in widths]


class TestPaddedProjection:
    @given(ragged_rows())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_padded_stack_projects_each_row_bit_for_bit(self, rows):
        # rows padded with -inf to one width and projected in one call: each
        # row's entries are its own call's, bit for bit, and the pads are 0
        stack = np.full((len(rows), max(r.size for r in rows)), -np.inf)
        for i, r in enumerate(rows):
            stack[i, : r.size] = r
        joint = geometry.project_simplex_rows(stack)
        for i, r in enumerate(rows):
            assert joint[i, : r.size].tobytes() == geometry.project_simplex_rows(r).tobytes()
            assert not joint[i, r.size :].any()


class TestSetDistanceArguments:
    @pytest.mark.parametrize("gen0, gen1, row_len0, error, text", [
        (np.ones((2, 3)), np.ones((2, 2)), 2, DimensionMismatch, r"shapes \(2, 3\) and \(2, 2\)"),
        (np.ones((2, 2)), np.ones((2, 2)), 0, InvalidArgument, "row_len0 must be an integer >= 1"),
        (np.ones((2, 2)), np.ones((3, 2)), 2, DimensionMismatch, r"shapes \(2, 2\) and \(3, 2\)"),
        (np.ones((2, 2)), np.ones((2, 2)), 2.0, InvalidArgument, "row_len0 must be an integer"),
        (np.full((2, 2), np.nan), np.ones((2, 2)), 2, InvalidArgument, "entry is not finite"),
        ((1 + 1j) * np.ones((2, 2)), np.ones((2, 2)), 2, InvalidArgument, "real numbers"),
        ([["1", 0.5], [0.5, 0.5]], np.ones((2, 2)), 2, InvalidArgument, "real numbers"),
        (np.full((2, 2), 1e200), np.ones((2, 2)), 2, InvalidArgument, "Gram matrix is not finite"),
        (np.full((1, 2), 6e153), np.full((1, 2), -6e153), 1, InvalidArgument,
         "gradient at the uniform start is not finite"),
    ], ids=["columns", "zero row length", "rows", "float row length", "nan", "complex", "string",
            "gram overflow", "residual overflow"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_call_raises_a_toolkit_error(self, gen0, gen1, row_len0, error, text):
        # complex entries were cast to their real parts (distance 0.0 for
        # (1+1j)-ones against ones), "1" parsed as a number, 1e200 gave
        # (inf, nan), and so did 6e153, whose Gram matrix is finite but
        # whose residual at the start overflows
        with pytest.raises(error, match=text):
            affine_set_distance(gen0, gen1, row_len0, 2)

    @pytest.mark.parametrize("max_iter", [-1, 2.5, True])
    def test_step_budget_must_be_a_count(self, max_iter):
        # a negative or fractional budget never met the step count: no budget
        with pytest.raises(InvalidArgument, match="max_iter must be an integer >= 0"):
            affine_set_distance(np.eye(2), np.ones((2, 2)), 2, 2, max_iter=max_iter)

    def test_zero_step_budget_returns_the_uniform_start(self):
        dist, _, q0, q1 = affine_set_distance(np.eye(2), np.ones((2, 2)), 2, 2, max_iter=0)
        assert np.array_equal(q0, [0.5, 0.5]) and np.array_equal(q1, q0)
        assert dist == pytest.approx(np.sqrt(0.5), rel=1e-15)


@st.composite
def simplex_parts(draw):
    """(parts, y, h): blocks of rows of unequal lengths laid out in one flat point, a point y
    off the product and a symmetric positive semidefinite model Hessian h for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts, start = [], 0
    for _ in range(draw(st.integers(1, 4))):
        r, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        parts.append((slice(start, start + m * r), r))
        start += m * r
    a = rng.standard_normal((start + 1, start))
    return tuple(parts), 2.0 * rng.standard_normal(start), a.T @ a


def row_owners(parts):
    """Each entry's row, the rows of all parts counted in order."""
    lengths = [r for sl, r in parts for _ in range(sl.start, sl.stop, r)]
    return np.arange(len(lengths)).repeat(lengths)


class TestSimplices:
    @given(simplex_parts())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_constraint_block_is_the_kkt_layout(self, drawn):
        parts, y, _ = drawn
        system = geometry._Simplices(parts)
        owner = row_owners(parts)
        ref = kkt_matrix(np.zeros((y.size, y.size)), owner, owner[-1] + 1)
        assert (system.n, system.nrows) == (y.size, owner[-1] + 1)
        assert np.array_equal(system.kkt, ref) and np.shares_memory(system.hess, system.kkt)
        assert system.keep.all() and not system.rhs.any()

    @given(simplex_parts())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_projection_is_each_parts_own_bit_for_bit(self, drawn):
        parts, y, _ = drawn
        system = geometry._Simplices(parts)
        for scale in (1.0, 1e-3):
            ref = np.concatenate([geometry.project_simplex_rows(scale * y[sl].reshape(-1, r))
                                  .ravel() for sl, r in parts])
            assert system.project(scale * y).tobytes() == ref.tobytes()

    @given(simplex_parts(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_kkt_solve_is_a_fresh_solve_of_the_kept_block(self, drawn, seed):
        parts, _, h = drawn
        rng = np.random.default_rng(seed)
        system = geometry._Simplices(parts)
        system.hess[...] = h
        system.rhs[:] = rng.standard_normal(system.rhs.size)
        system.keep[: system.n] = rng.random(system.n) < 0.7
        free, owner = system.keep[: system.n], row_owners(parts)
        # every row keeps an entry, or its constraint row is a zero row
        assume(np.isin(np.arange(system.nrows), owner[free]).all())
        ref = np.linalg.solve(kkt_matrix(h[free][:, free], owner[free], system.nrows),
                              system.rhs[system.keep])
        idx, sol = geometry._solve_kkt(system)
        assert np.array_equal(idx, free.nonzero()[0])
        assert np.array_equal(sol, ref[: idx.size])
        assert np.array_equal(system.hess, h)


class TestPatternSearch:
    TARGETS = (
        [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]],
        [[0.123, 0.456, 0.421], [0.7, 0.05, 0.25]],
        [[0.0, 0.3, 0.7], [1 / 3, 1 / 3, 1 / 3]],   # maximiser on the boundary
    )

    @staticmethod
    def _concave(target):
        return lambda x: -((x - target) ** 2).sum(axis=(1, 2))

    @pytest.mark.parametrize("target", TARGETS)
    def test_reaches_maximiser_within_floor(self, target):
        target = np.array(target)
        floor = 1e-4
        val, x = pattern_search(self._concave(target), np.full((2, 3), 1 / 3)[None], 0.25, floor)
        val, x = val[0], x[0]
        assert np.abs(x - target).max() <= floor
        assert np.allclose(x.sum(axis=1), 1.0) and x.min() >= 0.0
        assert val == pytest.approx(float(self._concave(target)(x[None])[0]), abs=0.0)

    def test_returns_start_when_no_move_gains(self):
        target = np.array(self.TARGETS[0])
        x0 = target.copy()
        val, x = pattern_search(self._concave(target), x0[None], 0.25, 1e-6)
        val, x = val[0], x[0]
        assert np.array_equal(x, x0)
        assert val == 0.0

    def test_single_entry_rows_admit_no_move(self):
        x0 = np.ones((2, 1))
        val, x = pattern_search(lambda x: x.sum(axis=(1, 2)), x0[None], 0.25, 1e-6)
        val, x = val[0], x[0]
        assert np.array_equal(x, x0)
        assert val == 2.0


class TestBatchedPatternSearch:
    @staticmethod
    def _assert_matches_single_starts(f, starts, span, floor):
        vals, xs = pattern_search(f, starts, span, floor)
        for start, val, x in zip(starts, vals, xs):
            alone_val, alone_x = pattern_search(f, start[None], span, floor)
            assert val == alone_val[0]
            assert np.array_equal(x, alone_x[0])

    @pytest.mark.parametrize("target", TestPatternSearch.TARGETS)
    def test_concave_stack_matches_single_starts(self, target):
        target = np.array(target)
        rng = np.random.default_rng(3)
        # the target itself is a start already at its maximizer
        starts = np.stack(
            [np.full((2, 3), 1 / 3), target] + [rng.dirichlet(np.ones(3), size=2) for _ in range(4)]
        )
        self._assert_matches_single_starts(TestPatternSearch._concave(target), starts, 0.25, 1e-6)

    @pytest.mark.parametrize("budget", [0.0, 0.05, 0.2])
    def test_demo_source_stack_matches_single_starts(self, budget):
        # the auxiliary-channel objective of the demo's first source, as the
        # test-side search oracle scores it with its 1e-9 slack; the starts
        # are its best grid kernel, the uniform kernel and random draws
        joint = _demo_source(3).joint

        def feasible_value(k_rows):
            i_uvp, i_uv = _aux_objective(joint, k_rows)
            feas = i_uvp - i_uv <= budget + 1e-9
            return np.where(feas, i_uvp, -1.0)

        grid = kernel_grid(2, 3, 16)
        rng = np.random.default_rng(5)
        starts = np.stack(
            [grid[int(np.argmax(feasible_value(grid)))], np.full((2, 3), 1 / 3)]
            + [rng.dirichlet(np.ones(3), size=2) for _ in range(5)]
        )
        self._assert_matches_single_starts(feasible_value, starts, 0.25, 1e-7)

    def test_start_at_floor_stops_while_others_move(self):
        # `near` sits 0.003 off the maximizer along a move direction, so only
        # spans below 0.006 gain: its span halves to the floor (0.0078 <= 0.01)
        # without a move, and were it kept searching it would move at 0.0039.
        # `far` keeps moving for rounds after that.
        target = np.array([[0.6, 0.3, 0.1]])
        near = np.array([[0.603, 0.297, 0.1]])
        far = np.array([[0.1, 0.1, 0.8]])
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return TestPatternSearch._concave(target)(x)

        val, x = pattern_search(f, near[None], 0.25, 0.01)
        assert np.array_equal(x[0], near)
        near_rounds = len(calls)
        calls.clear()
        vals, xs = pattern_search(f, np.stack([near, far]), 0.25, 0.01)
        assert len(calls) > near_rounds + 2
        assert np.array_equal(xs[0], near) and vals[0] == val[0]


class TestRidgeSearch:
    @staticmethod
    def _ridge(x):
        # maximal at x00 = x10 = 1, steep across the diagonal x00 = x10
        return x[:, 0, 0] + x[:, 1, 0] - 1e3 * (x[:, 0, 0] - x[:, 1, 0]) ** 2

    @staticmethod
    def _counted(f, calls):
        def g(x):
            calls.append(x.shape[0])
            return f(x)
        return g

    def test_ridge_across_rows_reached_in_few_calls(self):
        # one-row moves alone climb this ridge in a zig-zag of 1,389 calls
        calls = []
        val, x = pattern_search(
            self._counted(self._ridge, calls), np.full((1, 2, 3), 1 / 3), 0.25, 1e-7
        )
        assert len(calls) <= 100
        assert np.abs(x[0] - [[1, 0, 0], [1, 0, 0]]).max() <= 1e-7
        assert val[0] == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("objective", ["ridge", "concave"])
    def test_span_never_exceeds_starting_span(self, monkeypatch, objective):
        # every candidate stack is x + span * steps with steps of entries
        # -1, 0, +1 in each coordinate, so its spread over moves is 2 * span
        spans = []
        project = helpers.project_simplex_rows

        def spy(y):
            spans.extend((y.max(axis=1) - y.min(axis=1)).max(axis=(-2, -1)) / 2)
            return project(y)

        monkeypatch.setattr(helpers, "project_simplex_rows", spy)
        target = np.array(TestPatternSearch.TARGETS[1])
        f = self._ridge if objective == "ridge" else TestPatternSearch._concave(target)
        rng = np.random.default_rng(2)
        starts = np.stack([np.full((2, 3), 1 / 3), rng.dirichlet(np.ones(3), size=2)])
        pattern_search(f, starts, 0.25, 1e-7)
        assert len(spans) > 2 * len(starts)
        assert max(spans) <= 0.25 * (1 + 1e-12)
