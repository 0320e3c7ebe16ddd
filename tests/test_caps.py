"""Every cap is charged in one place, config.charge, and every entry point that
takes caps raises one below the size it needs and runs at that size."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from functools import cache
from math import comb
from pathlib import Path

import numpy as np
import pytest

import avcqc
from avcqc import (
    CorrelationCode,
    CqChannel,
    DeterministicCode,
    JammerKernel,
    RandomCode,
    assemble_two_part,
    build_g_pair,
    repetition_precode,
    separation_test,
)
from avcqc import cli
from avcqc import serialize as io
from avcqc.config import Caps
from avcqc.errors import DimOverflow, EnumerationOverflow
from avcqc.typicality import stable_eigh
from helpers import flip_source, mirror_pair_channel, orthogonal_channel, per_block_window_classes

SRC_DIR = Path(avcqc.__file__).resolve().parent
SPECS = Path(__file__).resolve().parents[1] / "specs"
CAP_FIELDS = {f.name for f in fields(Caps)}


# ---------------------------------------------------------------------------
# one place
# ---------------------------------------------------------------------------

def _is_a_cap(node, bound):
    """Whether the expression is a cap: a Caps field read as an attribute or
    by a getattr on caps, a name bound to one, or one of these plus or times
    something."""
    if isinstance(node, ast.Attribute):
        return node.attr in CAP_FIELDS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
        return "caps" in ast.unparse(node.args[0]).lower()
    if isinstance(node, ast.BinOp):
        return _is_a_cap(node.left, bound) or _is_a_cap(node.right, bound)
    return isinstance(node, ast.Name) and node.id in bound


def cap_comparisons():
    """(module, function, source) of every comparison in the package that reads a cap."""
    found, seen = [], set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            bound = set()
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and (
                        node.value is not None and _is_a_cap(node.value, bound)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound |= {t.id for t in targets if isinstance(t, ast.Name)}
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and id(node) not in seen and any(
                        _is_a_cap(sub, bound) for sub in ast.walk(node)):
                    seen.add(id(node))
                    found.append((path.stem, getattr(func, "name", "<lambda>"), ast.unparse(node)))
    return found


def test_charge_holds_the_only_comparison_with_a_cap():
    assert cap_comparisons() == [("config", "charge", "size > cap")]


def test_the_check_helpers_are_gone():
    text = "".join(path.read_text() for path in SRC_DIR.glob("*.py"))
    for name in ("_check_product_dim", "_check_state_words", "_check_ensemble_dim"):
        assert name not in text


# ---------------------------------------------------------------------------
# the table: every public callable with caps, at its need and one below
# ---------------------------------------------------------------------------

def public_callables_with_caps():
    """Qualified names of the package's public functions and methods that take
    caps, but for config.charge, the charge itself."""
    found = set()
    for info in pkgutil.iter_modules(avcqc.__path__):
        mod = importlib.import_module(f"avcqc.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{m}", f) for m, f in vars(obj).items() if not m.startswith("_")]
            found |= {f"{info.name}.{qual}" for qual, f in members
                      if inspect.isfunction(f) and "caps" in inspect.signature(f).parameters}
    return found - {"config.charge"}


def projective_code(n, codebook):
    """A deterministic code over the orthogonal channel: codeword xs decoded by
    the projector onto its basis word."""
    eye = np.eye(2 ** n)
    index = [int("".join(map(str, xs)), 2) for xs in codebook]
    return DeterministicCode(n, tuple(codebook), np.stack([np.outer(eye[i], eye[i]) for i in index]))


@cache
def instances():
    """The small inputs the table runs on, over the orthogonal channel (|X| = |S|
    = d = 2) and the 10% flip source (iota = 3, so |V|^iota = 8)."""
    w, src = orthogonal_channel(), flip_source(0.1)
    gp = build_g_pair(src, w.x_alphabet)
    cert = separation_test(w, src, gp)
    pre = repetition_precode(cert, gp, src, w, num_keys=2, nu=1)   # l = 3
    dense = CorrelationCode(l=pre.l, n=pre.n, v_prime_words=pre.v_prime_words,
                            v_words=pre.v_words, encoders=pre.encoders, decoders=pre.decoders)
    inner = RandomCode((projective_code(2, [(0, 0), (1, 1)]), projective_code(2, [(1, 1), (0, 0)])))
    fixed = CqChannel((0, 1), np.stack([np.eye(2) / 2] * 2))
    return {
        "w": w, "src": src, "gp": gp, "cert": cert, "pre": pre, "dense": dense,
        "inner": inner, "det": inner.codes[0], "two": assemble_two_part(pre, inner, w, src),
        "fixed": fixed, "projector": avcqc.typical_projector(np.eye(2) / 2, 3, 0.3),
    }


def window_count(p0, n, half_width):
    """Label sequences of length n over two labels whose label-0 frequency
    lies within half_width of p0."""
    return sum(comb(n, c) for c in range(n + 1) if abs(c / n - p0) <= half_width + 1e-12)


def verifier_need(w, p, ns, alpha):
    """The verifier's enumeration need: its block lengths or its largest count
    table, cells over the source classes' counts of labels 0..d-2."""
    spec = np.clip(stable_eigh(np.einsum("x,xij->ij", p, w.states))[0], 0.0, None)
    cells = max(int(np.prod(np.array(classes)[:, :-1].max(axis=0) + 1))
                for n in ns if (classes := per_block_window_classes(spec, n, alpha)))
    return max(len(ns), cells)


# (callable, field, need(inst), call(inst, caps)); needs are computed from the
# instance's sizes: d^n product dimensions, |S|^n state words, (|V'| |V|)^l
# source word pairs, |V|^iota d ensemble sides, typical counts and ranks
TABLE = [
    ("channels.product_output", "product_dim", lambda i: i["w"].dim ** 3,
     lambda i, caps: avcqc.product_output(i["w"], (0, 1, 0), (1, 1, 0), caps)),
    ("channels.zero_capacity_condition", "enumeration", lambda i: len(i["w"].x_alphabet) ** 2,
     lambda i, caps: avcqc.zero_capacity_condition(i["w"], 2, caps)),
    ("channels.zero_capacity_condition", "jammer_states", lambda i: len(i["w"].s_alphabet) ** 2,
     lambda i, caps: avcqc.zero_capacity_condition(i["w"], 2, caps)),
    ("channels.zero_capacity_condition", "product_dim", lambda i: i["w"].dim ** 2,
     lambda i, caps: avcqc.zero_capacity_condition(i["w"], 2, caps)),
    ("coding.worst_case_error_informed", "jammer_states", lambda i: len(i["w"].s_alphabet) ** 2,
     lambda i, caps: avcqc.worst_case_error_informed(i["det"], i["w"], caps)),
    ("coding.worst_case_error_informed", "product_dim", lambda i: i["w"].dim ** 2,
     lambda i, caps: avcqc.worst_case_error_informed(i["det"], i["w"], caps)),
    # a jamming function picks one of |S|^n state words per distinct codeword
    ("coding.worst_case_error_brute_force", "jammer_states",
     lambda i: (len(i["w"].s_alphabet) ** 2) ** len(set(i["det"].codebook)),
     lambda i, caps: avcqc.coding.worst_case_error_brute_force(i["det"], i["w"], caps)),
    ("coding.worst_case_error_brute_force", "product_dim", lambda i: i["w"].dim ** 2,
     lambda i, caps: avcqc.coding.worst_case_error_brute_force(i["det"], i["w"], caps)),
    ("coding.random_code_error_informed", "jammer_states", lambda i: len(i["w"].s_alphabet) ** 2,
     lambda i, caps: avcqc.random_code_error_informed(i["inner"], i["w"], caps)),
    ("coding.random_code_error_informed", "product_dim", lambda i: i["w"].dim ** 2,
     lambda i, caps: avcqc.random_code_error_informed(i["inner"], i["w"], caps)),
    ("coding.correlation_code_error_informed", "enumeration", lambda i: (2 * 2) ** i["pre"].l,
     lambda i, caps: avcqc.correlation_code_error_informed(i["pre"], i["w"], i["src"], caps)),
    ("coding.correlation_code_error_informed", "jammer_states",
     lambda i: len(i["w"].s_alphabet) ** i["pre"].n,
     lambda i, caps: avcqc.correlation_code_error_informed(i["pre"], i["w"], i["src"], caps)),
    ("coding.correlation_code_error_informed", "product_dim", lambda i: i["w"].dim ** i["dense"].n,
     lambda i, caps: avcqc.correlation_code_error_informed(i["dense"], i["w"], i["src"], caps)),
    ("coding.two_part_error_informed", "jammer_states",
     lambda i: len(i["w"].s_alphabet) ** (i["pre"].n + i["inner"].n),
     lambda i, caps: avcqc.coding.two_part_error_informed(i["pre"], i["inner"], i["w"],
                                                          i["src"], caps)),
    ("coding.two_part_error_informed", "product_dim", lambda i: i["w"].dim ** i["inner"].n,
     lambda i, caps: avcqc.coding.two_part_error_informed(i["pre"], i["inner"], i["w"],
                                                          i["src"], caps)),
    ("coding.assemble_two_part", "enumeration", lambda i: (2 * 2) ** i["pre"].l,
     lambda i, caps: assemble_two_part(i["pre"], i["inner"], i["w"], i["src"], caps)),
    ("coding.assemble_two_part", "jammer_states",
     lambda i: len(i["w"].s_alphabet) ** (i["pre"].n + i["inner"].n),
     lambda i, caps: assemble_two_part(i["pre"], i["inner"], i["w"], i["src"], caps)),
    ("coding.assemble_two_part", "product_dim", lambda i: i["w"].dim ** i["inner"].n,
     lambda i, caps: assemble_two_part(i["pre"], i["inner"], i["w"], i["src"], caps)),
    ("coding.repetition_precode", "enumeration", lambda i: (2 * 2) ** (2 * i["gp"].iota),
     lambda i, caps: repetition_precode(i["cert"], i["gp"], i["src"], i["w"], 2, 2, caps)),
    ("coding.repetition_precode", "product_dim", lambda i: i["w"].dim ** 2,
     lambda i, caps: repetition_precode(i["cert"], i["gp"], i["src"], i["w"], 2, 2, caps)),
    ("coding.cr_generation_run", "enumeration", lambda i: (2 * 2) ** i["pre"].l,
     lambda i, caps: avcqc.cr_generation_run(i["w"], i["src"], i["pre"], 20, 7, caps)),
    ("coding.cr_generation_run", "jammer_states", lambda i: len(i["w"].s_alphabet) ** i["pre"].n,
     lambda i, caps: avcqc.cr_generation_run(i["w"], i["src"], i["pre"], 20, 7, caps)),
    ("coding.cr_generation_run", "product_dim", lambda i: i["w"].dim ** i["inner"].n,
     lambda i, caps: avcqc.cr_generation_run(i["w"], i["src"], i["two"], 20, 7, caps)),
    ("separation.ensemble_state", "product_dim",
     lambda i: len(i["src"].v_alphabet) ** i["gp"].iota * i["w"].dim,
     lambda i, caps: avcqc.ensemble_state(i["src"], i["gp"].g0, JammerKernel.uniform((0, 1), (0, 1)),
                                          i["w"], caps)),
    ("separation.separation_test", "product_dim",
     lambda i: len(i["src"].v_alphabet) ** i["gp"].iota * i["w"].dim,
     lambda i, caps: separation_test(i["w"], i["src"], i["gp"], caps=caps)),
    # at n = 6 the window of half-width 1/4 about 1/2 holds 50 sequences
    # and the enumerator at most n + 1 = 7 candidates per label
    ("typicality.typical_set", "enumeration", lambda i: window_count(0.5, 6, 0.25),
     lambda i, caps: avcqc.typical_set([0.5, 0.5], 6, 0.5, caps)),
    ("typicality.TypicalProjector.matrix", "product_dim", lambda i: 2 ** i["projector"].n,
     lambda i, caps: i["projector"].matrix(caps)),
    ("typicality.typical_projector", "enumeration", lambda i: window_count(0.5, 4, 0.3),
     lambda i, caps: avcqc.typical_projector(np.eye(2) / 2, 4, 0.3, caps)),
    # letter 0 on 2 positions, letter 1 on 3: the rank is the product of their counts
    ("typicality.conditional_typical_projector", "enumeration",
     lambda i: window_count(0.5, 2, 0.3) * window_count(0.5, 3, 0.3),
     lambda i, caps: avcqc.conditional_typical_projector(i["fixed"], (0, 1, 0, 1, 1), 0.3, caps)),
    # the README command, whose largest count table binds, and a range whose
    # 40 block lengths bind
    ("typicality.verify_typicality_bounds", "enumeration",
     lambda i: verifier_need(mirror_pair_channel(), [0.5, 0.5], range(4, 13), 0.1),
     lambda i, caps: avcqc.verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5],
                                                    range(4, 13), 0.1, caps)),
    ("typicality.verify_typicality_bounds", "enumeration",
     lambda i: verifier_need(mirror_pair_channel(), [0.5, 0.5], range(1, 41), 0.1),
     lambda i, caps: avcqc.verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5],
                                                    range(1, 41), 0.1, caps)),
]


def test_the_table_lists_every_callable_with_caps():
    assert {row[0] for row in TABLE} == public_callables_with_caps()
    assert len(public_callables_with_caps()) == 17


@pytest.mark.parametrize("row", TABLE, ids=[f"{r[0]}-{r[1]}-{k}" for k, r in enumerate(TABLE)])
def test_runs_at_its_need_and_raises_one_below(row):
    _, field, need_of, call = row
    inst = instances()
    need = need_of(inst)
    error = DimOverflow if field == "product_dim" else EnumerationOverflow
    with pytest.raises(error, match=rf"^[^0-9]* {need} exceeds the {field} cap {need - 1}$"):
        call(inst, Caps(**{field: need - 1}))
    call(inst, Caps(**{field: need}))


# ---------------------------------------------------------------------------
# the commands: --cap only where a cap is charged
# ---------------------------------------------------------------------------

def commands_with_cap():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    return {name for name, parser in subs.items() if "--cap" in parser._option_string_actions}


def _separate_need():
    w = io.load_channel(SPECS / "orthogonal_channel.json")
    src = io.load_source(SPECS / "flip10_source.json")
    return len(src.v_alphabet) ** build_g_pair(src, w.x_alphabet).iota * w.dim


def _simulate_needs(field):
    """simulate's default design, nu = 3 channel uses of a binary pre-code: its
    separation test's ensemble side, its decoders' d^nu, its source word
    pairs and its state words."""
    w = io.load_channel(SPECS / "orthogonal_channel.json")
    src = io.load_source(SPECS / "flip10_source.json")
    iota, nu = build_g_pair(src, w.x_alphabet).iota, 3
    return {
        "product_dim": max(len(src.v_alphabet) ** iota * w.dim, w.dim ** nu),
        "enumeration": (len(src.v_prime_alphabet) * len(src.v_alphabet)) ** (nu * iota),
        "jammer_states": len(w.s_alphabet) ** nu,
    }[field]


def _typicality_need():
    w = io.load_channel(SPECS / "mirror_pair_fixed_channel.json")
    return verifier_need(CqChannel(w.x_alphabet, w.states[:, 0]), [0.5, 0.5], range(4, 13), 0.1)


PAIR = ["--channel", str(SPECS / "orthogonal_channel.json"),
        "--source", str(SPECS / "flip10_source.json"), "--seed", "7"]
COMMANDS = [
    ("separate", "product_dim", _separate_need, ["separate", *PAIR]),
    ("typicality", "enumeration", _typicality_need,
     ["typicality", "--channel", str(SPECS / "mirror_pair_fixed_channel.json"), "--p", "0.5,0.5",
      "--n-min", "4", "--n-max", "12", "--alpha", "0.1"]),
    *[("simulate", field, lambda field=field: _simulate_needs(field),
       ["simulate", *PAIR, "--trials", "20"])
      for field in ("product_dim", "enumeration", "jammer_states")],
]


def test_cap_flag_only_on_the_commands_that_charge_one():
    assert commands_with_cap() == {row[0] for row in COMMANDS} == {
        "separate", "typicality", "simulate"}


@pytest.mark.parametrize("command, field, need_of, argv", COMMANDS,
                         ids=[f"{c[0]}-{c[1]}" for c in COMMANDS])
def test_command_runs_at_its_need_and_exits_1_one_below(command, field, need_of, argv,
                                                        tmp_path, capsys):
    need = need_of()
    error = "DimOverflow" if field == "product_dim" else "EnumerationOverflow"
    below = tmp_path / "below.out"
    assert cli.main(argv + ["--cap", f"{field}={need - 1}", "--out", str(below)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}: ")
    assert err[0].endswith(f" {need} exceeds the {field} cap {need - 1}")
    assert not below.exists()
    at, default = tmp_path / "at.out", tmp_path / "default.out"
    assert cli.main(argv + ["--cap", f"{field}={need}", "--out", str(at)]) == 0
    assert cli.main(argv + ["--out", str(default)]) == 0
    assert at.read_bytes() == default.read_bytes()


@pytest.mark.parametrize("argv", [
    ["capacity", "--channel", str(SPECS / "bitflip_channel.json"), "--seed", "7"],
    ["cr-capacity", *PAIR],
    ["discontinuity-demo", "--n-list", "3", "--seed", "7"],
], ids=lambda argv: argv[0])
def test_cap_flag_is_refused_where_no_cap_is_charged(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(argv + ["--cap", "product_dim=8", "--out", str(out)]) == 1
    assert "unrecognized arguments: --cap" in capsys.readouterr().err
    assert not out.exists()
