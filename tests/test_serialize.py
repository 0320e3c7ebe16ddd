import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcqc import DeterministicCode, RandomCode, serialize as io
from avcqc.errors import SpecParseError
from helpers import (
    ONE,
    ZERO,
    bitflip_channel,
    deterministic_code_to_json,
    flip_source,
    load_deterministic_code,
    load_random_code,
    random_code_to_json,
    wishart_avcqc,
)


class TestMatrixRoundTrip:
    def test_complex_entries(self):
        m = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])
        assert np.allclose(io.matrix_from_json(io.matrix_to_json(m)), m)

    def test_bad_payload(self):
        with pytest.raises(SpecParseError):
            io.matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


def old_matrix_to_json(m):
    """Reference: the per-entry comprehension matrix_to_json replaced."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


class TestMatrixToJson:
    @pytest.mark.parametrize("m", [
        np.arange(6.0).reshape(2, 3) - 2.5,
        [[1, 2], [3, 4]],
        np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]]),
        np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, 1e-300), -1e300]]),
        np.asfortranarray(np.arange(12.0).reshape(3, 4) * (1 - 2j) / 7),
        (np.arange(30.0).reshape(5, 6) * (1 + 1j) / 3)[::2, ::-3],
    ], ids=["real", "integer", "complex", "signed zeros", "fortran", "strided"])
    def test_pairs_are_the_per_entry_comprehension(self, m):
        got = io.matrix_to_json(m)
        # repr tells -0.0 from 0.0 and float from np.float64
        assert repr(got) == repr(old_matrix_to_json(m))
        assert {type(v) for row in got for pair in row for v in pair} == {float}


@st.composite
def float_blocks(draw):
    """A regular nested list of Python floats, 1-3 deep: finite, or with NaN and infinities."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    finite = draw(st.booleans())
    entry = st.floats(allow_nan=not finite, allow_infinity=not finite) | st.just(-0.0)
    flat = draw(st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.reshape(np.array(flat, dtype=float), shape).tolist()


# what json.dumps writes or refuses: np.int64 and sets raise TypeError
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300]),
    st.text(), st.sampled_from(["", "é\n\"\\", "\u2603\U0001f600"]), float_blocks(),
    st.integers(-2**63, 2**63 - 1).map(np.int64) | st.sets(st.integers(), max_size=2),
)
json_objects = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.dictionaries(st.integers(-3, 3) | st.floats(allow_nan=False), inner, max_size=3),
), max_leaves=20)


def outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc)


class TestDumpJson:
    @given(json_objects)
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_text_is_the_stdlib_indented_dump(self, obj):
        assert outcome(lambda o: io._encode(o, 0), obj) == outcome(
            lambda o: json.dumps(o, sort_keys=True, indent=2), obj)

    def test_file_is_the_dump_and_a_newline(self, tmp_path):
        obj = {"b": [[[0.5, -0.0]]], "a": (None, True, "é", float("nan")), "c": {}}
        io.dump_json(obj, tmp_path / "out.json")
        assert (tmp_path / "out.json").read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestChannelRoundTrip:
    def test_avcqc(self, tmp_path):
        w = bitflip_channel()
        path = tmp_path / "chan.json"
        io.dump_json(io.channel_to_json(w), path)
        loaded = io.load_channel(str(path))
        assert loaded.x_alphabet == ("0", "1")
        assert np.allclose(loaded.states, w.states)

    @pytest.mark.parametrize("edit", [
        lambda o: o["states"].update({"0,0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}),
        lambda o: o.update(dim=float("inf")),
        lambda o: o.update(dim=2.5),
        lambda o: o["states"]["0,1"][1].__setitem__(1, [float("nan"), 0.0]),
        lambda o: o["states"]["1,0"][0].__setitem__(0, [0.0, 0.0, 1.0]),
        lambda o: o["states"]["1,1"][0].__setitem__(0, [True, 0.0]),
        lambda o: o.update(x_alphabet="01"),
        lambda o: o.update(s_alphabet=[]),
        lambda o: o.update(states=[]),
    ], ids=["ragged rows", "infinite dim", "fractional dim", "nan entry", "triple",
            "bool entry", "string alphabet", "empty alphabet", "states not a map"])
    def test_malformed_spec(self, tmp_path, edit):
        obj = io.channel_to_json(bitflip_channel())
        edit(obj)
        path = tmp_path / "chan.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError):
            io.load_channel(str(path))

    def test_missing_state_key(self, tmp_path):
        # load_channel fills the state table itself, so it alone refuses the gap
        obj = io.channel_to_json(bitflip_channel())
        del obj["states"]["1,0"]
        path = tmp_path / "chan.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError, match="missing state for key '1,0'"):
            io.load_channel(str(path))

    def test_labels_joining_to_one_state_key_are_refused(self, tmp_path):
        # ("a", "b,c") and ("a,b", "c") both write as "a,b,c": the spec
        # below gives 3 keys for 4 pairs
        state = [[[1.0, 0.0]]]
        obj = {"x_alphabet": ["a", "a,b"], "s_alphabet": ["b,c", "c"], "dim": 1,
               "states": {"a,b,c": state, "a,c": state, "a,b,b,c": state}}
        path = tmp_path / "chan.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError, match=r"state key 'a,b,c' is the key of both pairs "
                                                 r"\('a', 'b,c'\) and \('a,b', 'c'\)"):
            io.load_channel(str(path))

    def test_labels_with_commas_and_distinct_keys_load(self, tmp_path):
        w = bitflip_channel()
        obj = io.channel_to_json(w)
        obj["x_alphabet"] = ["0,", "1,"]
        obj["states"] = {f"{x},{s}": m for (x, s), m in zip(
            [(x, s) for x in obj["x_alphabet"] for s in obj["s_alphabet"]],
            obj["states"].values())}
        path = tmp_path / "chan.json"
        io.dump_json(obj, path)
        loaded = io.load_channel(str(path))
        assert loaded.x_alphabet == ("0,", "1,")
        assert loaded.states.tobytes() == w.states.tobytes()

    def test_loaded_states_are_the_spec_entries(self, tmp_path):
        rng = np.random.default_rng(4)
        w = wishart_avcqc(rng, 3, 2, 3)
        path = tmp_path / "chan.json"
        io.dump_json(io.channel_to_json(w), path)
        loaded = io.load_channel(str(path))
        assert loaded.states.tobytes() == w.states.tobytes()
        assert (loaded.x_alphabet, loaded.s_alphabet) == (("0", "1", "2"), ("0", "1"))


class TestSourceRoundTrip:
    def test_source(self, tmp_path):
        src = flip_source(0.1)
        path = tmp_path / "src.json"
        io.dump_json(io.source_to_json(src), path)
        loaded = io.load_source(str(path))
        assert np.allclose(loaded.joint, src.joint)

    @pytest.mark.parametrize("joint", [
        [[0.45, float("nan")], [0.05, 0.45]],
        [[0.45, 0.05], [0.05, float("inf")]],
        [[0.45, 0.05], [0.5]],
        [[0.45, 0.05], [0.05, "0.45"]],
        [[0.45, 0.05, 0.0], [0.05, 0.45, 0.0]],
    ], ids=["nan", "inf", "ragged", "string entry", "shape"])
    def test_malformed_joint(self, tmp_path, joint):
        obj = io.source_to_json(flip_source(0.1))
        obj["joint"] = joint
        path = tmp_path / "src.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError):
            io.load_source(str(path))


    @pytest.mark.parametrize("field, labels, named", [
        ("v_prime", ["0", "0"], "'0' and '0'"),
        ("v", [0, "0"], "0 and '0'"),
        ("v", ["a", "b", 7, "7"], "7 and '7'"),
    ])
    def test_labels_that_read_alike_are_refused(self, tmp_path, field, labels, named):
        obj = io.source_to_json(flip_source(0.1))
        obj[field] = labels
        obj["joint"] = [[1.0 / (2 * len(obj["v"]))] * len(obj["v"])] * len(obj["v_prime"])
        path = tmp_path / "src.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError, match=f"{field}: labels {named} both read "):
            io.load_source(str(path))

    def test_channel_label_that_repeats_is_refused(self, tmp_path):
        obj = io.channel_to_json(bitflip_channel())
        obj["s_alphabet"] = ["0", 0]
        path = tmp_path / "chan.json"
        io.dump_json(obj, path)
        with pytest.raises(SpecParseError, match="s_alphabet: labels '0' and 0 both read '0'"):
            io.load_channel(str(path))

    def test_code_words_may_repeat_a_letter(self, tmp_path):
        assert io._words([["0", "0"], [1, 1]], 2, "words") == (("0", "0"), ("1", "1"))


class TestCodeRoundTrip:
    def test_deterministic(self):
        code = DeterministicCode(
            2, ((0, 0), (1, 1)), np.stack([np.kron(ZERO, ZERO), np.kron(ONE, ONE)])
        )
        obj = deterministic_code_to_json(code)
        loaded = load_deterministic_code(obj)
        assert loaded.n == 2
        assert np.allclose(loaded.decoders, code.decoders)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.7),                                   # not an integer
        ("n", "2"),                                   # not a number
        ("n", True),                                  # a boolean
        ("codebook", ["00", "11"]),                   # codewords as strings
        ("decoders", [[[[1.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]]]),  # shapes differ
    ])
    def test_deterministic_refuses_malformed_field(self, field, value):
        code = DeterministicCode(
            2, ((0, 0), (1, 1)), np.stack([np.kron(ZERO, ZERO), np.kron(ONE, ONE)])
        )
        obj = deterministic_code_to_json(code)
        with pytest.raises(SpecParseError, match=field):
            load_deterministic_code({**obj, field: value})

    def test_random(self, tmp_path):
        det0 = DeterministicCode(
            1, ((0,), (1,)), np.stack([ZERO, ONE])
        )
        det1 = DeterministicCode(
            1, ((1,), (0,)), np.stack([ONE, ZERO])
        )
        code = RandomCode((det0, det1))
        path = tmp_path / "code.json"
        io.dump_json(random_code_to_json(code), path)
        loaded = load_random_code(str(path))
        assert loaded.num_keys == 2
        assert np.allclose(loaded.codes[1].decoders, det1.decoders)
