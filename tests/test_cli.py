import json
import time

import numpy as np
import pytest

from avcqc import Avcqc
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

    def test_rejects_small_n(self, tmp_path):
        out = tmp_path / "demo.csv"
        rc = main(["discontinuity-demo", "--n-list", "2,3", "--seed", "11",
                   "--out", str(out)])
        assert rc == 1


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
        # specs are validated under the default tolerances and no command
        # materializes a projector: these fields would change nothing
        chan = write_channel(tmp_path, bitflip_channel())
        argv = ["capacity", "--channel", chan, "--seed", "1", override]
        self._rejects(argv, tmp_path, capsys, override.split("=")[1])

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
        chan = write_channel(tmp_path, bitflip_channel())
        argv = ["capacity", "--channel", chan, "--seed", "7", override]
        self._rejects(argv, tmp_path, capsys, field)

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
        chan = write_channel(tmp_path, bitflip_channel())
        out = tmp_path / "cap.json"
        argv = ["capacity", "--channel", chan, "--seed", "7", "--cap", "product_dim=4e3",
                "--out", str(out)]
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
