import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from avcqc import Avcqc
from avcqc import cli
from avcqc import serialize as io
from avcqc.cli import main
from helpers import (
    ONE,
    ZERO,
    bitflip_channel,
    constant_channel,
    orthogonal_channel,
    wishart_avcqc,
)

SPECS = Path(__file__).resolve().parents[1] / "specs"


def write_channel(tmp_path, w, name="channel.json"):
    path = tmp_path / name
    io.dump_json(io.channel_to_json(w), path)
    return str(path)


def write_source(tmp_path, joint, name="source.json"):
    path = tmp_path / name
    io.dump_json({"v_prime": ["0", "1"], "v": ["0", "1"], "joint": joint}, path)
    return str(path)


def write_fixed_channel(tmp_path, states, name="fixed.json"):
    obj = {
        "x_alphabet": ["0", "1"],
        "s_alphabet": ["s"],
        "dim": 2,
        "states": {
            "0,s": io.matrix_to_json(states[0]),
            "1,s": io.matrix_to_json(states[1]),
        },
    }
    path = tmp_path / name
    io.dump_json(obj, path)
    return str(path)


class TestCapacityCommand:
    def test_orthogonal_channel(self, tmp_path):
        chan = write_channel(tmp_path, orthogonal_channel())
        out = tmp_path / "res.json"
        rc = main(["capacity", "--channel", chan, "--seed", "7", "--out", str(out)])
        assert rc == 0
        res = json.loads(out.read_text())
        assert res["value"] == pytest.approx(1.0, abs=1e-6)
        assert res["certified_gap"] <= 5e-3

    def test_bitflip_channel(self, tmp_path):
        chan = write_channel(tmp_path, bitflip_channel())
        out = tmp_path / "res.json"
        rc = main(["capacity", "--channel", chan, "--seed", "7", "--out", str(out)])
        assert rc == 0
        res = json.loads(out.read_text())
        assert res["value"] <= 1e-6

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"x_alphabet": [0, 1],\n "oops"')
        out = tmp_path / "res.json"
        rc = main(["capacity", "--channel", str(bad), "--seed", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err
        assert not out.exists()

    def test_trace_csv(self, tmp_path):
        chan = write_channel(tmp_path, bitflip_channel())
        out = tmp_path / "res.json"
        trace = tmp_path / "trace.csv"
        rc = main(
            ["capacity", "--channel", chan, "--seed", "3", "--out", str(out),
             "--trace-csv", str(trace)]
        )
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,objective"
        assert len(lines) > 1


class TestCrCapacityCommand:
    def test_constant_channel_perfect_correlation(self, tmp_path):
        chan = write_channel(tmp_path, constant_channel())
        src = write_source(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        out = tmp_path / "cr.json"
        rc = main(
            ["cr-capacity", "--channel", chan, "--source", src, "--seed", "5",
             "--out", str(out)]
        )
        assert rc == 0
        res = json.loads(out.read_text())
        assert res["value"] == 1.0
        assert res["case_tag"] == "large_correlation"
        assert res["aux_channel"] == [[1.0, 0.0], [0.0, 1.0]]


class TestSeparateCommand:
    def test_constant_channel_not_separable(self, tmp_path):
        chan = write_channel(tmp_path, constant_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sep.json"
        rc = main(
            ["separate", "--channel", chan, "--source", src, "--seed", "5",
             "--out", str(out)]
        )
        assert rc == 0
        res = json.loads(out.read_text())
        assert res["separable"] is False
        assert res["witness_distance"] <= 1e-10

    def test_orthogonal_channel_certificate(self, tmp_path):
        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sep.json"
        rc = main(
            ["separate", "--channel", chan, "--source", src, "--seed", "5",
             "--out", str(out)]
        )
        assert rc == 0
        res = json.loads(out.read_text())
        assert res["separable"] is True
        assert res["margin"] > 0
        assert res["g_pair"]["iota"] == 3

    def test_dead_band_exit_code(self, tmp_path):
        eps = 2e-6
        from avcqc import Avcqc

        rho1 = (1 - eps) * ZERO + eps * ONE
        w = Avcqc(("0", "1"), ("0", "1"), np.array([[ZERO, ZERO], [rho1, rho1]]))
        chan = write_channel(tmp_path, w)
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sep.json"
        rc = main(
            ["separate", "--channel", chan, "--source", src, "--seed", "5",
             "--out", str(out)]
        )
        assert rc == 2
        assert not out.exists()

    def test_sender_labels_whose_block_words_join_to_one_key_are_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the separation test ran")

        monkeypatch.setattr(cli, "separation_test", no_work)
        src = tmp_path / "source.json"
        io.dump_json({"v_prime": ["a", "aa"], "v": ["0", "1"],
                      "joint": [[0.45, 0.05], [0.05, 0.45]]}, src)
        out = tmp_path / "sep.json"
        rc = main(["separate", "--channel", str(SPECS / "orthogonal_channel.json"),
                   "--source", str(src), "--seed", "7", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SpecParseError: sender block words ")
        assert "('a', 'a', 'aa') and ('a', 'aa', 'a')" in err
        assert not out.exists()

    def test_multi_character_sender_labels_write_every_block_word(self, tmp_path):
        src = tmp_path / "source.json"
        io.dump_json({"v_prime": ["x0", "x1"], "v": ["0", "1"],
                      "joint": [[0.45, 0.05], [0.05, 0.45]]}, src)
        out = tmp_path / "sep.json"
        rc = main(["separate", "--channel", str(SPECS / "orthogonal_channel.json"),
                   "--source", str(src), "--seed", "7", "--out", str(out)])
        assert rc == 0
        gp = json.loads(out.read_text())["g_pair"]
        assert gp["iota"] == 3
        for table in ("g0", "g1", "groups"):
            assert len(gp[table]) == 8
            assert "x0x1x1" in gp[table]


REPEATED_LABEL_SOURCES = [
    ({"v_prime": ["0", "0"], "v": ["0", "1"]}, "v_prime: labels '0' and '0' both read '0'"),
    ({"v_prime": ["0", "1"], "v": [0, "0"]}, "v: labels 0 and '0' both read '0'"),
]


@pytest.mark.parametrize("command", ["separate", "simulate"])
@pytest.mark.parametrize("labels, message", REPEATED_LABEL_SOURCES, ids=["v_prime", "v"])
def test_source_with_a_repeated_label_exits_1(command, labels, message, tmp_path, capsys):
    # before the check, separate wrote a NotSeparable result for the first
    # source (its two sender letters read as one) and a certificate for the second
    src = tmp_path / "source.json"
    io.dump_json({**labels, "joint": [[0.45, 0.05], [0.05, 0.45]]}, src)
    out = tmp_path / "out.json"
    rc = main([command, "--channel", str(SPECS / "orthogonal_channel.json"),
               "--source", str(src), "--seed", "7", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SpecParseError: ")
    assert message in err
    assert not out.exists()


class TestTypicalityCommand:
    def test_bound_suite_csv(self, tmp_path):
        b = np.sqrt(0.92**2 - 0.5**2) / 2
        w0 = np.array([[0.75, b], [b, 0.25]], complex)
        w1 = np.array([[0.75, -b], [-b, 0.25]], complex)
        chan = write_fixed_channel(tmp_path, [w0, w1])
        out = tmp_path / "typ.csv"
        rc = main(
            ["typicality", "--channel", chan, "--p", "0.5,0.5", "--n-min", "4",
             "--n-max", "8", "--alpha", "0.1", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bound_id,n,lhs,rhs,slack,fitted_constant"
        assert len(lines) == 1 + 7 * 5
        for line in lines[1:]:
            assert float(line.split(",")[4]) >= -1e-12

    def test_enumeration_cap_reaches_verifier(self, tmp_path, capsys):
        chan = write_fixed_channel(tmp_path, [np.diag([0.75, 0.25]), np.diag([0.75, 0.25])])
        out = tmp_path / "typ.csv"
        rc = main(["typicality", "--channel", chan, "--cap", "enumeration=1",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: EnumerationOverflow")
        assert not out.exists()

    def test_block_length_past_int64_exits_1(self, tmp_path, capsys):
        out = tmp_path / "typ.csv"
        rc = main(["typicality", "--channel", str(SPECS / "mirror_pair_fixed_channel.json"),
                   "--n-min", str(10**20), "--n-max", str(10**20), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidArgument: block length {10**20} exceeds"), err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_d8_window_overflows_fast(self, tmp_path, capsys):
        # 62,891,499 compositions of 40 into 8 parts; the window's candidates
        # are counted against the enumeration cap before they are built
        states = np.array([[np.eye(8) / 8], [np.diag(np.arange(1, 9) / 36)]], dtype=complex)
        chan = write_channel(tmp_path, Avcqc(("0", "1"), ("s",), states))
        out = tmp_path / "typ.csv"
        start = time.perf_counter()
        rc = main(["typicality", "--channel", chan, "--n-min", "40", "--n-max", "40",
                   "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: EnumerationOverflow")
        assert not out.exists()

    def test_requires_single_state_channel(self, tmp_path, capsys):
        chan = write_channel(tmp_path, orthogonal_channel())
        out = tmp_path / "typ.csv"
        rc = main(["typicality", "--channel", chan, "--out", str(out)])
        assert rc == 1


class TestSimulateCommand:
    def test_builds_precode_and_writes_trials(self, tmp_path, capsys):
        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--channel", chan, "--source", src, "--seed", "9",
             "--trials", "25", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,v_prime,v,j,decoded,jammer_choice"
        assert len(lines) == 26
        assert "agreement_rate=" in capsys.readouterr().out

    def test_not_separable_channel_exits_no_separating_precode(self, tmp_path, capsys):
        # a definite NotSeparable leaves no pre-code to build: an error, not exit 2
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sim.csv"
        for w in (constant_channel(), bitflip_channel()):
            chan = write_channel(tmp_path, w)
            rc = main(
                ["simulate", "--channel", chan, "--source", src, "--seed", "9",
                 "--trials", "10", "--out", str(out)]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: NoSeparatingPrecode")
            assert "supply --code" in err
            assert not out.exists()

    def test_dead_band_channel_exits_indeterminate(self, tmp_path, capsys):
        eps = 2e-6
        from avcqc import Avcqc

        rho1 = (1 - eps) * ZERO + eps * ONE
        w = Avcqc(("0", "1"), ("0", "1"), np.array([[ZERO, ZERO], [rho1, rho1]]))
        chan = write_channel(tmp_path, w)
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--channel", chan, "--source", src, "--seed", "5",
             "--trials", "10", "--out", str(out)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("indeterminate: ")
        assert not out.exists()

    def test_accepts_code_file(self, tmp_path):
        from avcqc import CorrelationCode

        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        dec0 = np.stack([ZERO, ONE])
        dec1 = np.stack([ONE, ZERO])
        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=(("0",), ("1",)),
            v_words=(("0",), ("1",)),
            encoders=[[("0",), ("1",)], [("1",), ("0",)]],
            decoders=np.stack([dec0, dec1]),
        )
        code_path = tmp_path / "code.json"
        io.dump_json(io.correlation_code_to_json(code), code_path)
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--channel", chan, "--source", src, "--seed", "9",
             "--trials", "30", "--code", str(code_path), "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert all(r.split(",")[3] == r.split(",")[4] for r in rows)

    @pytest.mark.parametrize("field, value, message", [
        ("v_prime_words", [["a"], ["b"]],
         "error: AlphabetMismatch: sender word 0 of the code is ('a',), the source's is ('0',)"),
        ("encoders", [[["0"], ["1"]], [["1"], ["7"]]],
         "error: AlphabetMismatch: encoder letter '7' of sender word 1, message 1 is not in "
         "the channel's input alphabet ('0', '1')"),
    ], ids=["relabelled-sender-words", "encoder-letter-outside-channel"])
    def test_code_file_that_does_not_fit_exits_1(self, tmp_path, capsys, field, value, message):
        from avcqc import CorrelationCode

        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        code = CorrelationCode(
            l=1, n=1, v_prime_words=(("0",), ("1",)), v_words=(("0",), ("1",)),
            encoders=[[("0",), ("1",)], [("1",), ("0",)]],
            decoders=np.stack([np.stack([ZERO, ONE]), np.stack([ONE, ZERO])]),
        )
        spec = io.correlation_code_to_json(code)
        spec[field] = value
        code_path = tmp_path / "code.json"
        io.dump_json(spec, code_path)
        out = tmp_path / "sim.csv"
        rc = main(
            ["simulate", "--channel", chan, "--source", src, "--seed", "9",
             "--trials", "30", "--code", str(code_path), "--out", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()


class TestDiscontinuityDemo:
    def test_demo_rows(self, tmp_path):
        out = tmp_path / "demo.csv"
        rc = main(["discontinuity-demo", "--n-list", "3,4", "--seed", "11",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,source_distance_to_limit,cr_capacity"
        rows = {l.split(",")[0]: l.split(",")[1:] for l in lines[1:]}
        assert float(rows["3"][0]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows["4"][0]) == pytest.approx(0.25, abs=1e-12)
        assert float(rows["3"][1]) <= 1e-3
        assert float(rows["limit"][1]) == pytest.approx(1.0, abs=1e-6)

    def test_one_maxmin_solve_per_run(self, tmp_path, monkeypatch):
        # the fixed channel's max-min is solved once for every source of the run
        from avcqc import capacity, cli

        solves = []
        solve = capacity.capacity_informed_jammer

        def spy(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(capacity, "capacity_informed_jammer", spy)
        monkeypatch.setattr(cli, "capacity_informed_jammer", spy)
        out = tmp_path / "demo.csv"
        rc = main(["discontinuity-demo", "--n-list", "3,4,5", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert len(solves) == 1
        assert len(out.read_text().strip().splitlines()) == 5

    def test_rejects_small_n(self, tmp_path):
        out = tmp_path / "demo.csv"
        rc = main(["discontinuity-demo", "--n-list", "2,3", "--seed", "11",
                   "--out", str(out)])
        assert rc == 1


class TestUsageErrors:
    """argparse's usage errors exit 1, not 2 (the indeterminate-separation code)."""

    def test_unknown_flag(self, tmp_path, capsys):
        chan = write_channel(tmp_path, bitflip_channel())
        out = tmp_path / "cap.json"
        rc = main(["capacity", "--channel", chan, "--seed", "7", "--restarts", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SpecParseError: ") and "--restarts" in err
        assert not out.exists()

    def test_missing_channel(self, tmp_path, capsys):
        rc = main(["capacity", "--seed", "7", "--out", str(tmp_path / "cap.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SpecParseError: avcqc capacity: ") and "--channel" in err

    @pytest.mark.parametrize("argv", [["--help"], ["typicality", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: avcqc" in capsys.readouterr().out


class TestArgumentValidation:
    """Bad numeric arguments exit 1 with SpecParseError before any computation."""

    def _rejects(self, argv, tmp_path, capsys, flag):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "SpecParseError" in err and flag in err
        assert not out.exists()

    def _typicality(self, tmp_path, *extra):
        chan = write_fixed_channel(tmp_path, [ZERO, ONE])
        return ["typicality", "--channel", chan, *extra]

    def test_typicality_non_numeric_p(self, tmp_path, capsys):
        argv = self._typicality(tmp_path, "--p", "0.5,abc")
        self._rejects(argv, tmp_path, capsys, "--p")

    def test_typicality_n_min_zero(self, tmp_path, capsys):
        argv = self._typicality(tmp_path, "--n-min", "0")
        self._rejects(argv, tmp_path, capsys, "--n-min")

    def test_typicality_n_min_above_n_max(self, tmp_path, capsys):
        argv = self._typicality(tmp_path, "--n-min", "9", "--n-max", "8")
        self._rejects(argv, tmp_path, capsys, "--n-max")

    def test_demo_non_integer_n(self, tmp_path, capsys):
        argv = ["discontinuity-demo", "--n-list", "3,x", "--seed", "1"]
        self._rejects(argv, tmp_path, capsys, "--n-list")

    @pytest.mark.parametrize("override", [
        "--tol=hermitian=1e-6", "--tol=psd_floor=1e-6", "--tol=trace_one=1e-6",
        "--cap=projector_matrix_dim=2048",
    ])
    def test_override_without_effect_is_refused(self, tmp_path, capsys, override):
        # specs are validated under the default tolerances, so these fields
        # would change nothing; projector_matrix_dim, folded into product_dim,
        # is an unknown field of separate's --cap
        self._rejects(self._override_argv(tmp_path, override), tmp_path, capsys,
                      override.split("=")[1])

    @staticmethod
    def _override_argv(tmp_path, override):
        """capacity with a --tol override, separate with a --cap one: the
        commands that take --cap are the ones that charge a cap."""
        chan = write_channel(tmp_path, bitflip_channel())
        if override.startswith("--tol"):
            return ["capacity", "--channel", chan, "--seed", "7", override]
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        return ["separate", "--channel", chan, "--source", src, "--seed", "7", override]

    @pytest.mark.parametrize("command", ["cr-capacity", "discontinuity-demo"])
    def test_retired_constraint_slack_is_unknown(self, tmp_path, capsys, command):
        # the large-correlation case is exact: no search slack remains to set
        chan = write_channel(tmp_path, constant_channel())
        src = write_source(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        argv = {
            "cr-capacity": ["cr-capacity", "--channel", chan, "--source", src, "--seed", "1"],
            "discontinuity-demo": ["discontinuity-demo", "--n-list", "3", "--seed", "1"],
        }[command]
        self._rejects(argv + ["--tol", "cr_constraint_slack=1e-9"], tmp_path, capsys,
                      "unknown override field 'cr_constraint_slack'")

    def test_retired_solver_objective_is_unknown(self, tmp_path, capsys):
        # the max-min solve is one trajectory with no stall window to set
        chan = write_channel(tmp_path, bitflip_channel())
        argv = ["capacity", "--channel", chan, "--seed", "7", "--tol", "solver_objective=1e-9"]
        self._rejects(argv, tmp_path, capsys, "unknown override field 'solver_objective'")

    @pytest.mark.parametrize("override, field", [
        ("--tol=separable_above=abc", "separable_above"),
        ("--cap=product_dim=inf", "product_dim"),
        ("--tol=quadratic_solver=-1", "quadratic_solver"),
        ("--cap=product_dim=2.5", "product_dim"),
    ])
    def test_malformed_override_value(self, tmp_path, capsys, override, field):
        # a non-numeric value, a non-finite cap, a negative tolerance and a
        # non-integral cap: each names its field instead of a traceback
        self._rejects(self._override_argv(tmp_path, override), tmp_path, capsys, field)

    def test_nan_separation_bands_are_refused(self, tmp_path, capsys):
        # NaN bands made every distance indeterminate: exit 2 where the
        # default run exits 0 with "separable": false
        chan = write_channel(tmp_path, bitflip_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        argv = ["separate", "--channel", chan, "--source", src, "--seed", "7",
                "--tol", "not_separable_below=nan", "--tol", "separable_above=nan"]
        self._rejects(argv, tmp_path, capsys, "not_separable_below")

    def test_requested_bracket_width(self, tmp_path, capsys):
        # --tol maxmin_bracket sets the width that ends the max-min solve;
        # a width within the bracket's rounding (1e-12) exits 1
        w = wishart_avcqc(np.random.default_rng(15550441), 3, 3, 2)
        chan = write_channel(tmp_path, w)
        out = tmp_path / "cap.json"
        argv = ["capacity", "--channel", chan, "--seed", "7", "--out", str(out)]
        assert main(argv + ["--tol", "maxmin_bracket=1e-10"]) == 0
        assert json.loads(out.read_text())["certified_gap"] <= 1e-10
        out.unlink()
        assert main(argv + ["--tol", "maxmin_bracket=1e-12"]) == 1
        err = capsys.readouterr().err
        assert "InvalidArgument" in err and "maxmin_bracket" in err
        assert not out.exists()

    def test_integral_cap_in_float_notation_is_accepted(self, tmp_path):
        out = tmp_path / "cert.json"
        argv = self._override_argv(tmp_path, "--cap=product_dim=4e3") + ["--out", str(out)]
        assert main(argv) == 0 and out.exists()

    @pytest.mark.parametrize("alpha", ["-1", "0", "1"])
    def test_typicality_alpha_outside_unit_interval(self, tmp_path, capsys, alpha):
        argv = self._typicality(tmp_path, "--alpha", alpha)
        self._rejects(argv, tmp_path, capsys, "--alpha")

    def _simulate(self, tmp_path, *extra):
        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        return ["simulate", "--channel", chan, "--source", src, "--seed", "1", *extra]

    def test_simulate_zero_trials(self, tmp_path, capsys):
        argv = self._simulate(tmp_path, "--trials", "0")
        self._rejects(argv, tmp_path, capsys, "--trials")

    def test_simulate_negative_seed_before_any_spec_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = ["simulate", "--channel", missing, "--source", missing, "--seed", "-1"]
        self._rejects(argv, tmp_path, capsys, "--seed must be nonnegative")

    def test_simulate_zero_nu(self, tmp_path, capsys):
        argv = self._simulate(tmp_path, "--nu", "0")
        self._rejects(argv, tmp_path, capsys, "--nu")

    @pytest.mark.parametrize("keys", ["1", "9"])
    def test_simulate_keys_outside_range(self, tmp_path, capsys, keys):
        argv = self._simulate(tmp_path, "--nu", "3", "--keys", keys)
        self._rejects(argv, tmp_path, capsys, "--keys")

    def test_simulate_with_code_ignores_nu_and_keys(self, tmp_path):
        from avcqc import CorrelationCode

        code = CorrelationCode(
            l=1,
            n=1,
            v_prime_words=(("0",), ("1",)),
            v_words=(("0",), ("1",)),
            encoders=[[("0",), ("1",)], [("1",), ("0",)]],
            decoders=np.stack([np.stack([ZERO, ONE]), np.stack([ONE, ZERO])]),
        )
        code_path = tmp_path / "code.json"
        io.dump_json(io.correlation_code_to_json(code), code_path)
        out = tmp_path / "sim.csv"
        argv = self._simulate(tmp_path, "--trials", "5", "--nu", "0", "--keys", "0",
                              "--code", str(code_path), "--out", str(out))
        assert main(argv) == 0
        assert len(out.read_text().strip().splitlines()) == 6


class TestOutputPaths:
    """An output path in a missing directory exits 1 before any computation."""

    COMPUTE = ("capacity_informed_jammer", "cr_capacity", "separation_test",
               "verify_typicality_bounds", "repetition_precode", "cr_generation_run")

    @pytest.fixture
    def computed(self, monkeypatch):
        from avcqc import cli

        calls = []
        for name in self.COMPUTE:
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        return calls

    def _argv(self, command, tmp_path):
        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        return {
            "capacity": ["capacity", "--channel", chan, "--seed", "1"],
            "cr-capacity": ["cr-capacity", "--channel", chan, "--source", src, "--seed", "1"],
            "separate": ["separate", "--channel", chan, "--source", src, "--seed", "1"],
            "typicality": ["typicality", "--channel", write_fixed_channel(tmp_path, [ZERO, ONE])],
            "simulate": ["simulate", "--channel", chan, "--source", src, "--seed", "1"],
            "discontinuity-demo": ["discontinuity-demo", "--n-list", "3", "--seed", "1"],
        }[command]

    @pytest.mark.parametrize("command", ["capacity", "cr-capacity", "separate", "typicality",
                                         "simulate", "discontinuity-demo"])
    def test_out_in_missing_directory(self, command, tmp_path, capsys, computed):
        out = tmp_path / "missing" / "out"
        rc = main(self._argv(command, tmp_path) + ["--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "SpecParseError" in err and "--out" in err
        assert computed == []

    def test_trace_csv_naming_out_is_refused(self, tmp_path, capsys, computed):
        out = tmp_path / "res.json"
        # the same file under another spelling
        trace = f"{tmp_path}/./res.json"
        argv = self._argv("capacity", tmp_path) + ["--out", str(out), "--trace-csv", trace]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: SpecParseError: --trace-csv {trace} names the same file as --out" in err
        assert computed == []
        assert not out.exists()

    def test_trace_csv_in_missing_directory(self, tmp_path, capsys, computed):
        out = tmp_path / "res.json"
        argv = self._argv("capacity", tmp_path) + [
            "--out", str(out), "--trace-csv", str(tmp_path / "missing" / "trace.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "SpecParseError" in err and "--trace-csv" in err
        assert computed == []
        assert not out.exists()


class TestDeterminism:
    def test_capacity_byte_identical(self, tmp_path):
        chan = write_channel(tmp_path, orthogonal_channel())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["capacity", "--channel", chan, "--seed", "42", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_byte_identical(self, tmp_path):
        chan = write_channel(tmp_path, orthogonal_channel())
        src = write_source(tmp_path, [[0.45, 0.05], [0.05, 0.45]])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["simulate", "--channel", chan, "--source", src, "--seed", "13",
                 "--trials", "20", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCachedParser:
    """main builds its parser once per process; no call leaves state in it."""

    def _capacity(self, out, *extra):
        chan = str(SPECS / "wishart_3x3_d2_channel.json")
        return main(["capacity", "--channel", chan, "--seed", "7", "--out", str(out), *extra])

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_overrides_do_not_leak(self, tmp_path):
        cli.build_parser.cache_clear()
        first = tmp_path / "first.json"
        assert self._capacity(first) == 0
        tight = tmp_path / "tight.json"
        assert self._capacity(tight, "--tol", "maxmin_bracket=1e-10") == 0
        again = tmp_path / "again.json"
        assert self._capacity(again) == 0
        assert tight.read_bytes() != first.read_bytes()
        assert again.read_bytes() == first.read_bytes()
        # the cap overrides of one parse do not reach the next
        separate = ["separate", "--channel", "c", "--source", "s", "--seed", "7", "--out", "o"]
        args = cli.build_parser().parse_args(separate + ["--cap", "product_dim=16"])
        assert args.cap == ["product_dim=16"]
        args = cli.build_parser().parse_args(separate)
        assert args.tol is None and args.cap is None

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        out = tmp_path / "cap.json"
        assert self._capacity(out, "--restarts", "1") == 1
        assert "--restarts" in capsys.readouterr().err
        assert not out.exists()
        assert self._capacity(out) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["certified_gap"] <= 1e-6

    @pytest.mark.parametrize("command", sorted(cli._DISPATCH))
    def test_help_twice_prints_the_same(self, command, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and f"usage: avcqc {command}" in texts[0]


class TestImportedModules:
    """No command loads a numpy package it does not use."""

    # one run of each command on the README specs, as in the README
    COMMANDS = [
        "capacity --channel {s}/bitflip_channel.json --seed 7 --out {o}/cap.json",
        "cr-capacity --channel {s}/constant_channel.json --source {s}/perfect_source.json"
        " --seed 7 --out {o}/cr.json",
        "separate --channel {s}/orthogonal_channel.json --source {s}/flip10_source.json"
        " --seed 7 --out {o}/cert.json",
        "typicality --channel {s}/mirror_pair_fixed_channel.json --p 0.5,0.5"
        " --n-min 4 --n-max 12 --alpha 0.1 --out {o}/bounds.csv",
        "simulate --channel {s}/orthogonal_channel.json --source {s}/flip10_source.json"
        " --seed 7 --trials 200 --out {o}/trials.csv",
        "discontinuity-demo --n-list 3,4,5 --seed 7 --out {o}/demo.csv",
    ]

    SCRIPT = """
import contextlib, io, json, sys
from avcqc.cli import main
at_import = "numpy.ma" in sys.modules
codes = []
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(command.split()))
print(json.dumps({"at_import": at_import, "codes": codes,
                  "ma": sorted(m for m in sys.modules if (m + ".").startswith("numpy.ma."))}))
"""

    def test_no_command_imports_numpy_ma(self, tmp_path):
        commands = [c.format(s=SPECS, o=tmp_path) for c in self.COMMANDS]
        run = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                             capture_output=True, text=True, env=child_env(), check=True)
        res = json.loads(run.stdout)
        if res["at_import"]:
            pytest.skip("this numpy loads numpy.ma when it is imported")
        assert res["codes"] == [0] * len(commands)
        assert res["ma"] == []


def child_env():
    """The environment of a child Python that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
class TestOutOfMemory:
    """A command whose arrays do not fit the address space exits 1, as a ToolkitError does."""

    # the child limits its own address space to 2 GiB before numpy loads,
    # so the 894 GiB draw table of 10^10 trials fails without being touched
    SCRIPT = """
import resource, sys
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from avcqc.cli import main
sys.exit(main(sys.argv[1:]))
"""

    def test_huge_trials_exit_1_without_output(self, tmp_path):
        out = tmp_path / "trials.csv"
        argv = ["simulate", "--channel", str(SPECS / "orthogonal_channel.json"),
                "--source", str(SPECS / "flip10_source.json"), "--seed", "7",
                "--trials", "10000000000", "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                             capture_output=True, text=True, env=child_env())
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: MemoryError: Unable to allocate"), run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
class TestLongTypicalityRange:
    """A typicality range of more block lengths than the enumeration cap is refused
    after reading one past the cap, not listed whole."""

    # 10^20 block lengths: listed whole they would need far more than the
    # child's 3 GiB of address space
    SCRIPT = """
import resource, sys
limit = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from avcqc.cli import main
sys.exit(main(sys.argv[1:]))
"""

    def test_range_past_the_cap_exits_1_without_output(self, tmp_path):
        out = tmp_path / "bounds.csv"
        argv = ["typicality", "--channel", str(SPECS / "mirror_pair_fixed_channel.json"),
                "--n-min", "4", "--n-max", "100000000000000000000", "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                             capture_output=True, text=True, env=child_env())
        assert run.returncode == 1, run.stderr
        assert run.stderr.splitlines() == [
            "error: EnumerationOverflow: n_range length at least 1048577 exceeds the "
            "enumeration cap 1048576"]
        assert not out.exists()
