"""Property: a malformed spec file exits 1 with a SpecParseError, never a traceback.

Each example takes one channel or source file from specs/, or a
correlation code spec written by `correlation_code_to_json`, applies one
mutation to one of its values (ragged rows, a non-finite number, a value
of the wrong JSON type, a missing key, an extra [re, im] pair component)
and runs `capacity`, `cr-capacity` or `simulate --code` on it; the
examples are derandomized, so every run checks the same files.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import CorrelationCode
from avcqc.cli import main
from avcqc.serialize import correlation_code_to_json

SPECS = Path(__file__).resolve().parents[1] / "specs"
CHANNELS = sorted(SPECS.glob("*_channel.json"))
SOURCES = sorted(SPECS.glob("*_source.json"))

# per JSON kind, values of some other kind
WRONG_TYPE = {
    "number": [None, "0.5", [], {}, True],
    "string": [None, [], {}, True, 1.5],
    "list": [None, 1.5, "x", {}],
    "dict": [None, 1.5, "x", []],
}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _kind(v):
    if _is_number(v):
        return "number"
    return {str: "string", list: "list", dict: "dict"}[type(v)]


def _nodes(obj, path=()):
    """(path, value) for obj and every value nested in it."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nodes(child, path + (key,))


def _mutations(v):
    """The mutations that apply to the value v."""
    out = ["wrong type"]
    if _is_number(v):
        out.append("non-finite")
    if isinstance(v, dict):
        out.append("missing key")
    if isinstance(v, list) and len(v) > 1 and all(isinstance(r, list) and r for r in v):
        out.append("ragged")
    if isinstance(v, list) and len(v) == 2 and all(_is_number(c) for c in v):
        out.append("extra component")
    return out


def _replace(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def _mutated(draw, spec):
    """spec with one mutation applied to one of its values."""
    sites = {}
    for path, v in _nodes(spec):
        for name in _mutations(v):
            sites.setdefault(name, []).append((path, v))
    mutation = draw(st.sampled_from(sorted(sites)))
    path, v = draw(st.sampled_from(sites[mutation]))
    if mutation == "wrong type":
        new = draw(st.sampled_from(WRONG_TYPE[_kind(v)]))
    elif mutation == "non-finite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif mutation == "missing key":
        key = draw(st.sampled_from(sorted(v)))
        new = {k: x for k, x in v.items() if k != key}
    elif mutation == "ragged":
        row = draw(st.integers(0, len(v) - 1))
        new = [r[:-1] if i == row else r for i, r in enumerate(v)]
    else:
        new = v + [draw(st.sampled_from([0.0, 1.0]))]
    return _replace(spec, path, new)


@st.composite
def mutated_specs(draw):
    """(command, channel spec, source spec): one of the two is mutated."""
    command = draw(st.sampled_from(["capacity", "cr-capacity"]))
    channel = json.loads(draw(st.sampled_from(CHANNELS)).read_text())
    source = None
    if command == "cr-capacity":
        source = json.loads(draw(st.sampled_from(SOURCES)).read_text())
    target = "source" if source is not None and draw(st.booleans()) else "channel"
    spec = _mutated(draw, source if target == "source" else channel)
    return (command, spec, source) if target == "channel" else (command, channel, spec)


def _code_spec():
    """Key agreement over two channel uses: l = 1, n = 2, two messages."""
    p00, p11 = np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0])
    code = CorrelationCode(
        l=1,
        n=2,
        v_prime_words=(("0",), ("1",)),
        v_words=(("0",), ("1",)),
        encoders=[[("0", "0"), ("1", "1")], [("1", "1"), ("0", "0")]],
        decoders=np.stack([np.stack([p00, p11]), np.stack([p11, p00])]),
    )
    return correlation_code_to_json(code)


CODE_SPEC = _code_spec()


@st.composite
def mutated_code_specs(draw):
    return _mutated(draw, CODE_SPEC)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutated_specs())
def test_malformed_spec_exits_one_with_spec_parse_error(case):
    command, channel, source = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [command, "--channel", str(tmp / "channel.json")]
        (tmp / "channel.json").write_text(json.dumps(channel))
        if command == "cr-capacity":
            argv += ["--source", str(tmp / "source.json")]
            (tmp / "source.json").write_text(json.dumps(source))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv + ["--seed", "7", "--out", str(tmp / "out.json")])
        assert not (tmp / "out.json").exists()
    assert rc == 1
    assert "error: SpecParseError:" in err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutated_code_specs())
def test_malformed_code_spec_exits_one_with_spec_parse_error(code):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "code.json").write_text(json.dumps(code))
        argv = ["simulate", "--channel", str(SPECS / "orthogonal_channel.json"),
                "--source", str(SPECS / "flip10_source.json"), "--code", str(tmp / "code.json"),
                "--seed", "7", "--trials", "5", "--out", str(tmp / "out.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert not (tmp / "out.csv").exists()
    assert rc == 1
    assert "error: SpecParseError:" in err.getvalue()
