import numpy as np
import pytest

from avcqc import (
    mutual_information,
    partial_trace,
    shannon_entropy,
    tensor,
    trace_distance,
    validate_density,
    von_neumann_entropy,
)
from avcqc.errors import (
    BadSubsystemIndex,
    DimensionMismatch,
    InvalidArgument,
    InvalidJoint,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)
from avcqc.operators import validate_joint, validate_probability_vector
from helpers import ONE, PLUS, ZERO, wishart_state


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert np.allclose(rho, np.eye(2) / 2)
        assert not rho.flags.writeable

    def test_pure_plus_state(self):
        rho = validate_density([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(rho, PLUS)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues of [[.5,.6],[.6,.5]] are 1.1 and -0.1 by the 2x2 formula
        with pytest.raises(NotPositive) as exc:
            validate_density([[0.5, 0.6], [0.6, 0.5]])
        assert "-1.0" in str(exc.value) or "-0.1" in str(exc.value)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            validate_density([[0.5, 0.5], [0.0, 0.5]])

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))


    def test_stack_validated_in_one_call(self):
        rng = np.random.default_rng(3)
        states = np.stack([[wishart_state(rng, 3) for _ in range(2)] for _ in range(4)])
        out = validate_density(states)
        assert out.shape == states.shape and not out.flags.writeable
        for i in range(4):
            for j in range(2):
                assert np.array_equal(out[i, j], validate_density(states[i, j]))

    def test_stack_names_first_offender(self):
        states = np.stack([np.eye(2) / 2] * 5)
        states[3] = [[0.5, 0.6], [0.6, 0.5]]
        states[4] = np.eye(2)
        with pytest.raises(NotPositive, match=r"^at \[3\]: minimum eigenvalue"):
            validate_density(states)

    def test_single_matrix_message_unprefixed(self):
        with pytest.raises(TraceNotOne, match=r"^trace is 2.0"):
            validate_density(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_refused(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(InvalidArgument, match=r"^at \[0, 1\]: entry .* is not finite"):
            validate_density(m)

    def test_non_square_stack(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 2, 3)) / 2)
        with pytest.raises(DimensionMismatch):
            validate_density([0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros((3, 0, 0)))


class TestDistributions:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(InvalidArgument, match=r"^at \[2\]: entry "):
            validate_probability_vector([0.5, 0.5, bad])
        with pytest.raises(InvalidArgument, match=r"^at \[1, 0\]: entry "):
            validate_joint([[0.5, 0.0], [bad, 0.5]])
        with pytest.raises(InvalidArgument):
            shannon_entropy([bad, 1.0])

    def test_messages_unchanged(self):
        with pytest.raises(InvalidJoint, match=r"^weights sum to 0.9"):
            validate_probability_vector([0.5, 0.4])
        with pytest.raises(InvalidJoint, match=r"^negative weight -1.000e-01"):
            validate_probability_vector([1.1, -0.1])
        with pytest.raises(InvalidJoint, match=r"^entries sum to 0.9"):
            validate_joint([[0.5, 0.0], [0.0, 0.4]])
        with pytest.raises(InvalidJoint, match=r"^negative entry -1.000e-01"):
            validate_joint([[0.6, 0.0], [0.5, -0.1]])

    def test_shape_checks(self):
        with pytest.raises(InvalidJoint, match="1-d weight vector"):
            validate_probability_vector([[0.5, 0.5]])
        with pytest.raises(InvalidJoint, match="2-d joint matrix"):
            validate_joint([0.5, 0.5])

    def test_clipped_and_read_only(self):
        p = validate_probability_vector([1.0 + 1e-13, -1e-13])
        assert p.tolist() == [1.0 + 1e-13, 0.0] and not p.flags.writeable
        j = validate_joint([[0.5, -1e-13], [0.0, 0.5 + 1e-13]])
        assert j.shape == (2, 2) and j[0, 1] == 0.0 and not j.flags.writeable


class TestEntropies:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        assert von_neumann_entropy(ZERO) == pytest.approx(0.0, abs=1e-9)

    def test_pure_state_entropy_is_positive_zero(self):
        from avcqc.operators import entropy_from_eigenvalues

        assert not np.signbit(entropy_from_eigenvalues([1.0, 0.0]))
        assert not np.any(np.signbit(entropy_from_eigenvalues(np.eye(3))))
        assert not np.signbit(von_neumann_entropy(ZERO))
        assert not np.signbit(von_neumann_entropy(PLUS))
        assert not np.signbit(shannon_entropy([1, 0]))

    def test_mix_of_zero_and_plus(self):
        # direct 2x2 eigendecomposition oracle: eigenvalues (1 +- 1/sqrt(2)) / 2
        lam = (1 + 2 ** -0.5) / 2
        expected = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
        rho = (ZERO + PLUS) / 2
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.60088, abs=5e-6)

    def test_shannon_basic(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
        assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        direct = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(0.81128, abs=5e-6)

    def test_entropy_concavity_spot_check(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            rho, sig = wishart_state(rng, d), wishart_state(rng, d)
            for lam in (0.25, 0.5, 0.75):
                mix = lam * rho + (1 - lam) * sig
                assert von_neumann_entropy(mix) >= (
                    lam * von_neumann_entropy(rho)
                    + (1 - lam) * von_neumann_entropy(sig)
                    - 1e-9
                )


class TestMutualInformation:
    def test_perfect_correlation(self):
        assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_correlation(self):
        # 1 - H(1/4) by direct evaluation
        expected = 1.0 + 0.25 * np.log2(0.25) + 0.75 * np.log2(0.75)
        got = mutual_information([[3 / 8, 1 / 8], [1 / 8, 3 / 8]])
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.18872, abs=5e-6)

    def test_invalid_joint(self):
        with pytest.raises(InvalidJoint):
            mutual_information([[0.5, 0.2], [0.1, 0.1]])
        with pytest.raises(InvalidJoint):
            mutual_information([[0.7, -0.1], [0.2, 0.2]])

    def test_entropy_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = rng.dirichlet(np.ones(6)).reshape(2, 3)
            lhs = mutual_information(j)
            rhs = (
                shannon_entropy(j.sum(axis=1))
                + shannon_entropy(j.sum(axis=0))
                - shannon_entropy(j.ravel())
            )
            assert lhs == pytest.approx(max(rhs, 0.0), abs=1e-10)


class TestTraceDistance:
    def test_identical(self):
        assert trace_distance(PLUS, PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert trace_distance(ZERO, ONE) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus(self):
        # difference has eigenvalues +-1/sqrt(2) by the 2x2 formula
        assert trace_distance(ZERO, PLUS) == pytest.approx(2 ** -0.5, abs=1e-12)
        assert 2 ** -0.5 == pytest.approx(0.70711, abs=5e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b, c = (wishart_state(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


class TestEigvalshStack:
    def test_d2_stack_matches_lapack(self):
        from avcqc.operators import eigvalsh_stack

        rng = np.random.default_rng(19)
        g = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        h = g + g.conj().swapaxes(-1, -2)
        assert np.allclose(eigvalsh_stack(h), np.linalg.eigvalsh(h), atol=1e-12)

    def test_general_dimension_delegates(self):
        from avcqc.operators import eigvalsh_stack

        rng = np.random.default_rng(20)
        g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        h = g + g.conj().swapaxes(-1, -2)
        assert np.allclose(eigvalsh_stack(h), np.linalg.eigvalsh(h), atol=1e-12)


class TestEighStack:
    @staticmethod
    def _check(h, w, v):
        eye = np.eye(h.shape[-1])
        assert np.allclose(v.conj().swapaxes(-1, -2) @ v, eye, atol=1e-12)
        assert np.allclose((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2), h, atol=1e-12)
        assert np.all(np.diff(w, axis=-1) >= 0.0)

    def test_d2_decomposition_with_diagonal_and_scalar_inputs(self):
        from avcqc.operators import eigh_stack, eigvalsh_stack

        rng = np.random.default_rng(21)
        g = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        h = g + g.conj().swapaxes(-1, -2)
        # diagonal inputs in either order, and a multiple of the identity
        h[0], h[1], h[2] = np.diag([2.0, -1.0]), np.diag([-1.0, 2.0]), 0.3 * np.eye(2)
        w, v = eigh_stack(h)
        self._check(h, w, v)
        assert np.array_equal(w, eigvalsh_stack(h))
        assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-12)

    def test_general_dimension_delegates(self):
        from avcqc.operators import eigh_stack

        rng = np.random.default_rng(22)
        g = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
        h = g + g.conj().swapaxes(-1, -2)
        w, v = eigh_stack(h)
        self._check(h, w, v)


class TestTensorAndPartialTrace:
    def test_product_state_reduction(self):
        full = tensor(np.eye(2) / 2, ZERO)
        reduced = partial_trace(full, (2, 2), 0)
        assert np.allclose(reduced, ZERO, atol=1e-12)

    def test_scalar_tensor_identity(self):
        rho = PLUS
        assert np.allclose(tensor(np.eye(1), rho), rho)

    def test_bell_state_marginal(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        reduced = partial_trace(bell, (2, 2), 1)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserving(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            op = tensor(wishart_state(rng, 2), wishart_state(rng, 3))
            for axis in (0, 1):
                red = partial_trace(op, (2, 3), axis)
                assert np.trace(red) == pytest.approx(np.trace(op), abs=1e-10)

    def test_bad_subsystem(self):
        with pytest.raises(BadSubsystemIndex):
            partial_trace(np.eye(4) / 4, (2, 2), 2)
