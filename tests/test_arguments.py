"""Every public entry point refuses a bad count or width with InvalidArgument.

A count is an integer (numpy integers too, bools not) of at least its
minimum; a width is a finite real number > 0 (bools not).  The message
names the argument, its bound and the value.
"""

import re
from functools import cache

import numpy as np
import pytest

from avcqc import (
    JammerStrategy,
    build_g_pair,
    capacity_informed_jammer,
    conditional_typical_projector,
    cr_generation_run,
    partial_trace,
    repetition_precode,
    separation_test,
    two_part_design,
    typical_projector,
    typical_set,
    verify_typicality_bounds,
    zero_capacity_condition,
)
from avcqc.errors import InvalidArgument
from avcqc.separation import certificate_soundness_sweep
from helpers import bitflip_channel, flip_source, mirror_pair_channel, orthogonal_channel

NAN = float("nan")
# 1.5 is a valid width, and each argument adds the integer just below its minimum
COUNTS = [1.5, True, -1, "3", NAN]
WIDTHS = [True, -1, "3", NAN, 0.0, float("inf")]


@cache
def precode_setting():
    """Orthogonal channel, flip-0.1 source, encoder pair, certificate and pre-code."""
    w, src = orthogonal_channel(), flip_source(0.1)
    gp = build_g_pair(src, w.x_alphabet)
    cert = separation_test(w, src, gp)
    return w, src, gp, cert, repetition_precode(cert, gp, src, w)


def sweep(**kwargs):
    w, src, gp, cert, _ = precode_setting()
    return certificate_soundness_sweep(cert, w, src, gp, **kwargs)


def precode(**kwargs):
    w, src, gp, cert, _ = precode_setting()
    return repetition_precode(cert, gp, src, w, **kwargs)


def cr_run(**kwargs):
    w, src, _, _, pre = precode_setting()
    return cr_generation_run(w, src, pre, **{"trials": 3, "seed": 1, **kwargs})


HALF = np.diag([0.5, 0.5])
# (entry point and argument, name in the message, bad values, call on one value)
ARGUMENTS = [
    ("capacity_informed_jammer outer_iter", "outer_iter", COUNTS,
     lambda v: capacity_informed_jammer(bitflip_channel(), outer_iter=v)),
    ("capacity_informed_jammer inner_iter", "inner_iter", COUNTS,
     lambda v: capacity_informed_jammer(bitflip_channel(), inner_iter=v)),
    ("repetition_precode num_keys", "num_keys", COUNTS + [1], lambda v: precode(num_keys=v)),
    ("repetition_precode nu", "nu", COUNTS + [0], lambda v: precode(nu=v)),
    ("certificate_soundness_sweep kernels", "kernels", COUNTS + [0],
     lambda v: sweep(kernels=v)),
    ("certificate_soundness_sweep seed", "seed", COUNTS, lambda v: sweep(seed=v)),
    ("partial_trace axis", "axis", COUNTS, lambda v: partial_trace(np.eye(4) / 4, (2, 2), v)),
    ("JammerStrategy.full n", "n", COUNTS + [0],
     lambda v: JammerStrategy.full((0, 1), v, lambda xs: xs)),
    # at n = 0 there was one empty word and no pair to compare, read as True
    ("zero_capacity_condition n", "n", COUNTS + [0],
     lambda v: zero_capacity_condition(bitflip_channel(), n=v)),
    ("two_part_design rate_r", "rate_r", WIDTHS, lambda v: two_part_design(v, 8)),
    ("two_part_design n", "channel length n", COUNTS + [1], lambda v: two_part_design(1.0, v)),
    ("two_part_design c_k", "c_k", WIDTHS, lambda v: two_part_design(1.0, 8, c_k=v)),
    ("cr_generation_run trials", "trials", COUNTS + [0], lambda v: cr_run(trials=v)),
    ("cr_generation_run seed", "seed", COUNTS, lambda v: cr_run(seed=v)),
    ("typical_set n", "block length", COUNTS + [0], lambda v: typical_set([0.5, 0.5], v, 0.3)),
    ("typical_set delta", "delta", WIDTHS, lambda v: typical_set([0.5, 0.5], 4, v)),
    ("typical_projector n", "block length", COUNTS + [0],
     lambda v: typical_projector(HALF, v, 0.1)),
    ("typical_projector alpha", "alpha", WIDTHS, lambda v: typical_projector(HALF, 3, v)),
    ("conditional_typical_projector alpha", "alpha", WIDTHS,
     lambda v: conditional_typical_projector(mirror_pair_channel(), (0, 1), v)),
    ("verify_typicality_bounds n_range", "block length", COUNTS + [0],
     lambda v: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [4, v], 0.1)),
    ("verify_typicality_bounds alpha", "alpha", WIDTHS,
     lambda v: verify_typicality_bounds(mirror_pair_channel(), [0.5, 0.5], [4], v)),
]
CASES = [(name, value, call) for _, name, bad, call in ARGUMENTS for value in bad]
IDS = [f"{entry}={value!r}" for entry, _, bad, _ in ARGUMENTS for value in bad]


@pytest.mark.parametrize("name, value, call", CASES, ids=IDS)
def test_bad_count_or_width_raises_invalid_argument(name, value, call):
    bound = r"(an integer >= \d+|a finite number > 0)"
    with pytest.raises(InvalidArgument,
                       match=rf"^{re.escape(name)} must be {bound}, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [np.int64(2), np.int32(2)])
def test_numpy_integer_counts_accepted(value):
    assert zero_capacity_condition(bitflip_channel(), n=value) is zero_capacity_condition(
        bitflip_channel(), n=2)
    assert len(JammerStrategy.full((0, 1), value, lambda xs: xs).table) == 4
