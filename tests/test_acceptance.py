"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

import time
from itertools import product as iproduct

import numpy as np
import pytest

from avcqc import (
    Avcqc,
    CorrelatedSource,
    CqChannel,
    RandomCode,
    assemble_two_part,
    binary_avc_positivity,
    build_g_pair,
    capacity_informed_jammer,
    cr_capacity,
    holevo_chi,
    induced_binary_avc,
    repetition_precode,
    separation_test,
    source_distance,
    von_neumann_entropy,
)
from avcqc import serialize as io
from avcqc.cli import main
from avcqc.coding import worst_case_error_brute_force, worst_case_error_informed
from avcqc.separation import NotSeparable, certificate_soundness_sweep
from avcqc.typicality import verify_typicality_bounds
from helpers import (
    ONE,
    PLUS,
    ZERO,
    binary_aux_grid_oracle,
    bitflip_channel,
    constant_channel,
    flip_source,
    maxmin_grid_oracle,
    mirror_pair_channel,
    orthogonal_channel,
    random_avcqc,
)
from test_coding import random_projective_code, toy_two_part


@pytest.fixture
def criterion(capfd):
    """Run a criterion body, then print its pass/fail line past the capture."""

    def run(num, name, budget_s, body):
        def emit(line):
            with capfd.disabled():
                print(line, flush=True)

        t0 = time.perf_counter()
        try:
            body()
        except BaseException:
            emit(f"[acceptance] criterion {num} ({name}): FAIL")
            raise
        elapsed = time.perf_counter() - t0
        ok = elapsed <= budget_s
        status = "PASS" if ok else "FAIL (runtime)"
        emit(f"[acceptance] criterion {num} ({name}): {status} [{elapsed:.2f}s / {budget_s}s]")
        assert ok, f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s > {budget_s}s"

    return run


def test_criterion_1_entropy_and_holevo_kernel(criterion):
    def body():
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
        lam = (1 + 2 ** -0.5) / 2
        closed_form = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
        w = CqChannel((0, 1), np.stack([ZERO, PLUS]))
        assert holevo_chi([0.5, 0.5], w) == pytest.approx(closed_form, abs=1e-6)
        assert closed_form == pytest.approx(0.600876, abs=1e-6)

    criterion(1, "entropy/Holevo kernel", 1.0, body)


def test_criterion_2_capacity_solver_vs_oracle(criterion):
    def body():
        rng = np.random.default_rng(2024)
        for k in range(25):
            w = random_avcqc(rng, nx=2, ns=2, dim=2)
            res = capacity_informed_jammer(w, seed=k)
            oracle = maxmin_grid_oracle(w)
            assert oracle is not None
            assert abs(res.value - oracle) <= 5e-3, f"instance {k}: oracle {oracle}"
            lo, hi = res.bracket
            assert lo <= res.value <= hi, f"instance {k}: bracket {res.bracket}"
        assert capacity_informed_jammer(bitflip_channel(), seed=0).value <= 1e-6
        assert capacity_informed_jammer(orthogonal_channel(), seed=0).value == pytest.approx(
            1.0, abs=1e-6
        )

    criterion(2, "capacity solver vs grid oracle", 120.0, body)


def test_criterion_3_separation_suite(criterion):
    def body():
        src = flip_source(0.1)
        gp = build_g_pair(src, (0, 1))
        res = separation_test(constant_channel(), src, gp, seed=0)
        assert isinstance(res, NotSeparable)
        assert res.witness_distance <= 1e-10
        w = orthogonal_channel()
        cert = separation_test(w, src, gp, seed=0)
        assert cert.margin > 0
        assert certificate_soundness_sweep(cert, w, src, gp, kernels=1000, seed=1) == 0
        bavc = induced_binary_avc(cert, w, src, gp)
        m00, m11 = bavc.min_correct
        assert m00 + m11 > 1.0

    criterion(3, "separation suite", 60.0, body)


def test_criterion_4_informed_decomposition_exactness(criterion):
    def body():
        rng = np.random.default_rng(404)
        for k in range(20):
            n = int(rng.integers(2, 4))       # |X|^n <= 64 for binary inputs
            j = int(rng.integers(2, 4))
            w = random_avcqc(rng, dim=2)
            code = random_projective_code(rng, n, j, allow_duplicates=(k % 5 == 0))
            fast = worst_case_error_informed(code, w)
            brute = worst_case_error_brute_force(code, w)
            assert abs(fast - brute) <= 1e-12

    criterion(4, "informed-jammer decomposition exactness", 60.0, body)


def test_criterion_5_two_part_chain(criterion):
    def body():
        w, src, pre, inner = toy_two_part(flip=0.1)
        two = assemble_two_part(pre, inner, w, src)
        assert two.assembled_error <= two.pre_error + two.inner_error + 1e-12

    criterion(5, "two-part error chain", 60.0, body)


def test_criterion_6_typicality_bounds(criterion):
    def body():
        w = mirror_pair_channel()  # averaged state is exactly diag(3/4, 1/4)
        rep = verify_typicality_bounds(w, [0.5, 0.5], range(4, 13), alpha=0.1)
        failed = [r for r in rep.rows if not r.passed]
        assert not failed, failed
        assert rep.constants_positive, rep.constants

    criterion(6, "typical-subspace bounds", 120.0, body)


def test_criterion_7_discontinuity_demo(criterion):
    def body():
        delta = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        w = Avcqc((0, 1), (0, 1), np.stack([[delta, delta], [delta, delta]]))
        limit = CorrelatedSource((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        dists, values = [], []
        for n in (3, 4, 5):
            eps = 2.0 ** -n
            src = CorrelatedSource(
                (0, 1), (0, 1), [[0.5 - eps, eps], [eps, 0.5 - eps]]
            )
            dists.append(source_distance(src, limit))
            values.append(cr_capacity(w, src, seed=0).value)
        assert dists == pytest.approx([0.5, 0.25, 0.125], abs=1e-12)
        assert all(a > b for a, b in zip(dists, dists[1:]))
        # F(0) = H(K), the Gacs-Korner common information: 0 for every
        # noisy source, 1 bit at the limit, exactly
        assert values == [0.0, 0.0, 0.0]
        lim_val = cr_capacity(w, limit, seed=0).value
        assert lim_val == 1.0

    criterion(7, "capacity discontinuity demo", 60.0, body)


def test_criterion_8_cr_capacity_case_split(criterion):
    def body():
        # binary source with mutual information exactly 0.5 via bisection on
        # the flip probability (independent oracle for the construction)
        lo, hi = 0.0, 0.5
        for _ in range(60):
            mid = (lo + hi) / 2
            h = -(mid * np.log2(mid) + (1 - mid) * np.log2(1 - mid)) if mid > 0 else 0.0
            if 1.0 - h > 0.5:
                lo = mid
            else:
                hi = mid
        q = (lo + hi) / 2
        src = flip_source(q)
        assert src.mutual_information() == pytest.approx(0.5, abs=1e-9)
        res = cr_capacity(orthogonal_channel(), src, seed=0)
        assert res.case_tag == "small_correlation"
        assert res.value == pytest.approx(1.5, abs=5e-3)

        for joint in ([[0.5, 0.0], [0.0, 0.5]], [[3 / 8, 1 / 8], [1 / 8, 3 / 8]]):
            src2 = CorrelatedSource((0, 1), (0, 1), joint)
            res2 = cr_capacity(constant_channel(), src2, seed=0)
            assert res2.case_tag == "large_correlation"
            oracle = binary_aux_grid_oracle(src2, res2.maxmin_value)
            assert abs(res2.value - oracle) <= 5e-3
            assert oracle <= res2.bracket[1] + 1e-9

    criterion(8, "CR capacity case split", 60.0, body)


def test_criterion_9_command_determinism(criterion, tmp_path):
    def body():
        chan_avc = tmp_path / "chan.json"
        io.dump_json(io.channel_to_json(orthogonal_channel()), chan_avc)
        chan_fixed = tmp_path / "fixed.json"
        b = np.sqrt(0.92 ** 2 - 0.5 ** 2) / 2
        io.dump_json(
            {
                "x_alphabet": ["0", "1"],
                "s_alphabet": ["s"],
                "dim": 2,
                "states": {
                    "0,s": io.matrix_to_json([[0.75, b], [b, 0.25]]),
                    "1,s": io.matrix_to_json([[0.75, -b], [-b, 0.25]]),
                },
            },
            chan_fixed,
        )
        src = tmp_path / "src.json"
        io.dump_json(
            {"v_prime": ["0", "1"], "v": ["0", "1"], "joint": [[0.45, 0.05], [0.05, 0.45]]},
            src,
        )
        commands = {
            "capacity": ["capacity", "--channel", str(chan_avc), "--seed", "7"],
            "cr": ["cr-capacity", "--channel", str(chan_avc), "--source", str(src), "--seed", "7"],
            "separate": ["separate", "--channel", str(chan_avc), "--source", str(src), "--seed", "7"],
            "typicality": ["typicality", "--channel", str(chan_fixed), "--p", "0.5,0.5",
                           "--n-min", "4", "--n-max", "8"],
            "simulate": ["simulate", "--channel", str(chan_avc), "--source", str(src),
                         "--seed", "7", "--trials", "15"],
            "demo": ["discontinuity-demo", "--n-list", "3", "--seed", "7"],
        }
        for name, argv in commands.items():
            payloads = []
            for run in range(2):
                out = tmp_path / f"{name}_{run}.out"
                rc = main(argv + ["--out", str(out)])
                assert rc == 0, name
                payloads.append(out.read_bytes())
            assert payloads[0] == payloads[1], f"{name} output differs between runs"

    criterion(9, "seeded command determinism", 600.0, body)
