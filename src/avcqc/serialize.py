"""JSON/CSV interchange for channels, sources, codes and results.

Complex matrices travel as row-major nested arrays of [re, im] pairs.
Dumps are written directly, with the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)``: canonical, so identical inputs give byte-identical output files.
"""

import json
import math
import reprlib
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import Avcqc, CorrelatedSource
from .coding import CorrelationCode
from .errors import SpecParseError


def matrix_to_json(m):
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _number(v, what):
    """v as a float if it is a finite JSON number (not a bool); else SpecParseError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecParseError(f"{what}: expected a number, got {reprlib.repr(v)}")
    try:
        f = float(v)
    except OverflowError:  # an integer beyond the float range
        f = math.inf
    if not math.isfinite(f):
        raise SpecParseError(f"{what}: expected a finite number, got {v!r}")
    return f


def _rows(obj, what):
    """obj, checked to be a list of equal-length lists."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise SpecParseError(f"{what}: expected a list of rows, got {reprlib.repr(obj)}")
    if len({len(row) for row in obj}) > 1:
        raise SpecParseError(f"{what}: ragged rows of lengths {[len(row) for row in obj]}")
    return obj


def _labels(obj, what, distinct=True):
    """A non-empty list of string or integer labels, as strings; with distinct, no two alike."""
    if not isinstance(obj, list) or not obj or not all(
        isinstance(v, (str, int)) and not isinstance(v, bool) for v in obj
    ):
        raise SpecParseError(
            f"{what}: expected a non-empty list of labels, got {reprlib.repr(obj)}"
        )
    labels = [str(v) for v in obj]
    for i, label in enumerate(labels):
        if distinct and label in labels[:i]:
            raise SpecParseError(
                f"{what}: labels {obj[labels.index(label)]!r} and {obj[i]!r} both read "
                f"{label!r}; every label must be distinct"
            )
    return labels


def _count(v, what):
    """v as a positive integer: a finite JSON number with no fractional part."""
    f = _number(v, what)
    if f != int(f) or f < 1:
        raise SpecParseError(f"{what} must be a positive integer, got {f!r}")
    return int(f)


def _words(obj, length, what):
    """A non-empty list of words of `length` labels each, as tuples of strings."""
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{what}: expected a non-empty list of words, got {reprlib.repr(obj)}")
    words = tuple(tuple(_labels(u, what, distinct=False)) for u in obj)
    if any(len(u) != length for u in words):
        raise SpecParseError(
            f"{what}: words must have length {length}, got lengths {[len(u) for u in words]}"
        )
    return words


def _field(obj, name, what):
    if not isinstance(obj, dict):
        raise SpecParseError(f"{what}: expected a JSON object")
    if name not in obj:
        raise SpecParseError(f"{what}: missing field {name!r}")
    return obj[name]


def _entry(pair, what):
    if not isinstance(pair, list) or len(pair) != 2:
        raise SpecParseError(f"{what}: entries must be [re, im] pairs, got {reprlib.repr(pair)}")
    return complex(_number(pair[0], what), _number(pair[1], what))


def matrix_from_json(obj, what="matrix"):
    rows = _rows(obj, what)
    return np.array([[_entry(pair, what) for pair in row] for row in rows], dtype=complex)


def _operators(obj, what):
    """A non-empty list of square matrices of one shape, stacked (k, D, D)."""
    if not isinstance(obj, list) or not obj:
        raise SpecParseError(f"{what}: expected a non-empty list of matrices")
    mats = [matrix_from_json(m, what) for m in obj]
    d = len(mats[0])
    if d == 0 or any(m.shape != (d, d) for m in mats):
        raise SpecParseError(
            f"{what}: expected square matrices of one shape, got {[m.shape for m in mats]}"
        )
    return np.stack(mats)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc


def _encode(o, level):
    """The text of json.dumps(o, sort_keys=True, indent=2) for o nested `level` deep."""
    if type(o) in (str, int) or type(o) is float and math.isfinite(o):
        return encode_basestring_ascii(o) if type(o) is str else repr(o)
    pad = "\n" + "  " * level
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        return "{" + ",".join(f"{pad}  {encode_basestring_ascii(k)}: {_encode(v, level + 1)}"
                              for k, v in sorted(o.items())) + pad + "}"
    shape, flat = [], [o]
    while set(map(type, flat)) == {list} and len(n := set(map(len, flat))) == 1 and 0 not in n:
        shape += n
        flat = list(chain.from_iterable(flat))
    if shape and set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
        # one block: after a float, close the k lists ending there, then a comma and k opens
        leaf = pad + "  " * len(shape)
        after, ends, starts = ["," + leaf], "", ""
        for d in reversed(range(len(shape))):
            ends, starts = ends + pad + "  " * d + "]", pad + "  " * d + "[" + starts
            after *= shape[d]
            after[-1] = ends + ("," + starts + leaf if d else "")
        text = [""] * (2 * len(flat))
        text[::2], text[1::2] = map(float.__repr__, flat), after
        return starts.lstrip() + leaf + "".join(text)
    if isinstance(o, (list, tuple)) and o:
        return "[" + ",".join(pad + "  " + _encode(v, level + 1) for v in o) + pad + "]"
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", pad)


def dump_json(obj, path):
    text = _encode(obj, 0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(rows, path):
    lines = [",".join(str(c) for c in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_channel(path):
    """AVCQC spec: {x_alphabet, s_alphabet, dim, states: {"x,s": matrix}}."""
    obj = _load_json(path)
    xa = _labels(_field(obj, "x_alphabet", path), f"{path}: x_alphabet")
    sa = _labels(_field(obj, "s_alphabet", path), f"{path}: s_alphabet")
    dim = _count(_field(obj, "dim", path), f"{path}: dim")
    states = _field(obj, "states", path)
    if not isinstance(states, dict):
        raise SpecParseError(f"{path}: states must map \"x,s\" keys to matrices")
    keys = {}
    for i, x in enumerate(xa):
        for j, s in enumerate(sa):
            key = f"{x},{s}"
            i0, j0 = keys.setdefault(key, (i, j))
            if (i0, j0) != (i, j):
                raise SpecParseError(
                    f"{path}: state key {key!r} is the key of both pairs "
                    f"{(xa[i0], sa[j0])} and {(x, s)}: every (x, s) pair needs its own key"
                )
    table = np.zeros((len(xa), len(sa), dim, dim), dtype=complex)
    for key, (i, j) in keys.items():
        if key not in states:
            raise SpecParseError(f"{path}: missing state for key {key!r}")
        m = matrix_from_json(states[key], f"{path}: state {key!r}")
        if m.shape != (dim, dim):
            raise SpecParseError(
                f"{path}: state {key!r} has shape {m.shape}, expected ({dim}, {dim})"
            )
        table[i, j] = m
    return Avcqc(tuple(xa), tuple(sa), table)


def channel_to_json(w):
    return {
        "x_alphabet": list(w.x_alphabet),
        "s_alphabet": list(w.s_alphabet),
        "dim": w.dim,
        "states": {
            f"{x},{s}": matrix_to_json(w.states[i, j])
            for i, x in enumerate(w.x_alphabet)
            for j, s in enumerate(w.s_alphabet)
        },
    }


def load_source(path):
    """Source spec: {v_prime: [...], v: [...], joint: [[...]]}."""
    obj = _load_json(path)
    vp = _labels(_field(obj, "v_prime", path), f"{path}: v_prime")
    vv = _labels(_field(obj, "v", path), f"{path}: v")
    what = f"{path}: joint"
    rows = _rows(_field(obj, "joint", path), what)
    joint = np.array([[_number(v, what) for v in row] for row in rows], dtype=float)
    if joint.shape != (len(vp), len(vv)):
        raise SpecParseError(f"{what} has shape {joint.shape}, expected ({len(vp)}, {len(vv)})")
    return CorrelatedSource(tuple(vp), tuple(vv), joint)


def source_to_json(src):
    return {
        "v_prime": list(src.v_prime_alphabet),
        "v": list(src.v_alphabet),
        "joint": [[float(v) for v in row] for row in src.joint],
    }


def capacity_result_to_json(res):
    return {
        "value": res.value,
        "argmax_p": [float(v) for v in res.argmax_p],
        "argmin_q": [[float(v) for v in row] for row in res.argmin_q.rows],
        "certified_gap": res.certified_gap,
        "iterations": len(res.solver_trace),
    }


def cr_result_to_json(res):
    return {
        "value": res.value,
        "case_tag": res.case_tag,
        "aux_channel": None
        if res.aux_channel is None
        else [[float(v) for v in row] for row in res.aux_channel],
        "maxmin_value": res.maxmin_value,
        "source_mi": res.source_mi,
    }


def certificate_to_json(cert):
    return {
        "separable": True,
        "operator_a": matrix_to_json(cert.operator_a),
        "threshold_b": cert.threshold_b,
        "m0": matrix_to_json(cert.m0),
        "m1": matrix_to_json(cert.m1),
        "margin": cert.margin,
        "distance": cert.distance,
    }


def not_separable_to_json(res):
    return {
        "separable": False,
        "witness_distance": res.witness_distance,
        "witness_q0": [[float(v) for v in row] for row in res.witness_q0.rows],
        "witness_q1": [[float(v) for v in row] for row in res.witness_q1.rows],
    }


def _word_key(u):
    return "".join(str(c) for c in u)


def check_gpair_keys(gp):
    """Raise SpecParseError unless gpair_to_json gives every block word its own key.

    Its tables key a sender block word by its labels joined without a
    separator, so labels such as "a" and "aa" would write two words as one key.
    """
    seen = {}
    for u in gp.groups:
        key = _word_key(u)
        other = seen.setdefault(key, u)
        if other != u:
            raise SpecParseError(
                f"sender block words {other} and {u} both write as g-pair key {key!r}: "
                "the source's v_prime labels must join to distinct keys"
            )


def gpair_to_json(gp):
    def table(g):
        return {_word_key(u): str(x) for u, x in sorted(g.items())}

    return {
        "iota": gp.iota,
        "g0": table(gp.g0),
        "g1": table(gp.g1),
        "groups": {_word_key(u): grp for u, grp in sorted(gp.groups.items())},
    }


def correlation_code_to_json(code):
    return {
        "kind": "correlation",
        "l": code.l,
        "n": code.n,
        "v_prime_words": [list(u) for u in code.v_prime_words],
        "v_words": [list(v) for v in code.v_words],
        "encoders": [[list(xs) for xs in row] for row in code.encoders],
        "decoders": [
            [matrix_to_json(code.decoders[vi, j]) for j in range(code.decoders.shape[1])]
            for vi in range(code.decoders.shape[0])
        ],
    }


def load_correlation_code(path):
    """Correlation code spec, as written by correlation_code_to_json."""
    obj = _load_json(path)
    if _field(obj, "kind", path) != "correlation":
        raise SpecParseError(f"{path}: expected a correlation code spec")
    l = _count(_field(obj, "l", path), f"{path}: l")
    n = _count(_field(obj, "n", path), f"{path}: n")
    vp_words = _words(_field(obj, "v_prime_words", path), l, f"{path}: v_prime_words")
    v_words = _words(_field(obj, "v_words", path), l, f"{path}: v_words")
    what = f"{path}: encoders"
    enc = [_words(row, n, what) for row in _rows(_field(obj, "encoders", path), what)]
    dec = _rows(_field(obj, "decoders", path), f"{path}: decoders")
    # the word lists are non-empty, so a first match makes enc and dec non-empty
    if (len(enc), len(dec)) != (len(vp_words), len(v_words)) or len(dec[0]) != len(enc[0]):
        raise SpecParseError(
            f"{path}: encoders and decoders must have one row per sender / receiver word "
            f"({len(vp_words)} / {len(v_words)}) and one entry per message"
        )
    ops = _operators([m for row in dec for m in row], f"{path}: decoders")
    return CorrelationCode(
        l=l,
        n=n,
        v_prime_words=vp_words,
        v_words=v_words,
        encoders=enc,
        decoders=ops.reshape(len(dec), len(dec[0]), *ops.shape[1:]),
    )
