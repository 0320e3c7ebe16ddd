"""Batch command-line front end.

Subcommands map one-to-one onto the library operations: capacity and
common-randomness solvers, the separation test, the typicality bound
suite, the key-agreement simulation and the capacity-discontinuity
demonstration.  Every command validates its input specs and output
paths before any computation and writes its full output at the end, so
failed runs leave no partial files.  Identical configuration and seed give byte-identical
outputs.

Exit codes: 0 success, 1 error, 2 indeterminate separation.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import serialize as io
from .capacity import capacity_informed_jammer, cr_capacity
from .channels import Avcqc, CorrelatedSource, CqChannel
from .coding import cr_generation_run, repetition_precode
from .config import Caps, Tolerances, with_overrides
from .errors import Indeterminate, NoSeparatingPrecode, SpecParseError, ToolkitError
from .separation import NotSeparable, build_g_pair, separation_test
from .typicality import verify_typicality_bounds


@dataclass(frozen=True)
class RunConfig:
    command: str
    channel_path: str | None
    source_path: str | None
    seed: int | None
    out_path: str
    tol: Tolerances
    caps: Caps
    extras: dict


# fields no command reads from the run's config: specs are validated under
# DEFAULT_TOL, and no command materializes a projector
_INERT_FIELDS = {"hermitian", "psd_floor", "trace_one", "projector_matrix_dim"}


def _parse_overrides(pairs, record, caster):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise SpecParseError(f"override {item!r} is not name=value")
        name, value = item.split("=", 1)
        if name not in {f.name for f in fields(record)}:
            raise SpecParseError(f"unknown override field {name!r}")
        if name in _INERT_FIELDS:
            raise SpecParseError(f"override field {name!r} has no effect on any command")
        out[name] = caster(name, value)
    return with_overrides(record, **out) if out else record


def _override_number(kind, name, text):
    """The finite number an override spells, or SpecParseError naming the field."""
    try:
        value = float(text)
    except ValueError:
        raise SpecParseError(f"{kind} {name} must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise SpecParseError(f"{kind} {name} must be finite, got {text!r}")
    return value


def _tolerance(name, text):
    value = _override_number("tolerance", name, text)
    if value < 0.0:
        raise SpecParseError(f"tolerance {name} must be nonnegative, got {text!r}")
    return value


def _cap(name, text):
    value = _override_number("cap", name, text)
    if value != int(value):
        raise SpecParseError(f"cap {name} must be an integer, got {text!r}")
    return int(value)


def _add_common(sub, channel=True, source=False, seed=True):
    if channel:
        sub.add_argument("--channel", required=True, help="AVCQC spec JSON")
    if source:
        sub.add_argument("--source", required=True, help="correlated source JSON")
    if seed:
        sub.add_argument("--seed", required=True, type=int,
                         help="seed of the simulate trials; the solvers draw no random numbers")
    sub.add_argument("--out", required=True, help="output path")
    sub.add_argument("--cap", "--caps", dest="cap", action="append",
                     help="cap override name=value")
    sub.add_argument("--tol", action="append", help="tolerance override name=value")


def build_parser():
    p = argparse.ArgumentParser(prog="avcqc", description=__doc__)
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("capacity", help="informed-jammer max-min capacity")
    _add_common(s)
    s.add_argument("--trace-csv", help="optional CSV of (iteration, objective)")

    s = subs.add_parser("cr-capacity", help="correlation-assisted CR capacity")
    _add_common(s, source=True)

    s = subs.add_parser("separate", help="convex separation of the encoder pair")
    _add_common(s, source=True)

    s = subs.add_parser("typicality", help="typical-subspace bound suite")
    _add_common(s, seed=False)
    s.add_argument("--p", default=None, help="input distribution, comma separated")
    s.add_argument("--n-min", type=int, default=4)
    s.add_argument("--n-max", type=int, default=12)
    s.add_argument("--alpha", type=float, default=0.1)

    s = subs.add_parser("simulate", help="common-randomness generation trials")
    _add_common(s, source=True)
    s.add_argument("--code", help="correlation code JSON (default: build a pre-code)")
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--nu", type=int, default=3, help="pre-code channel uses")
    s.add_argument("--keys", type=int, default=2, help="pre-code key count")

    s = subs.add_parser("discontinuity-demo", help="capacity jump under vanishing source perturbations")
    s.add_argument("--n-list", default="3,4,5", help="sequence indices, each >= 3")
    s.add_argument("--seed", required=True, type=int)
    s.add_argument("--out", required=True)
    s.add_argument("--cap", "--caps", dest="cap", action="append")
    s.add_argument("--tol", action="append")
    return p


def _parse_list(text, caster, flag):
    try:
        return [caster(v) for v in text.split(",")]
    except ValueError:
        raise SpecParseError(f"{flag} expects a comma-separated list, got {text!r}") from None


def _check_arguments(args):
    """Validate and parse the numeric arguments before any computation."""
    if args.command == "typicality":
        if args.p:
            args.p = _parse_list(args.p, float, "--p")
        if args.n_min < 1:
            raise SpecParseError(f"--n-min must be at least 1, got {args.n_min}")
        if args.n_min > args.n_max:
            raise SpecParseError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
        if not 0.0 < args.alpha < 1.0:
            raise SpecParseError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.command == "simulate":
        if args.trials < 1:
            raise SpecParseError(f"--trials must be at least 1, got {args.trials}")
        # --nu and --keys only build the pre-code, so --code leaves them unused
        if not args.code and args.nu < 1:
            raise SpecParseError(f"--nu must be at least 1, got {args.nu}")
        # keys > 2**nu exactly when keys - 1 needs more than nu bits
        if not args.code and (args.keys < 2 or (args.keys - 1).bit_length() > args.nu):
            raise SpecParseError(
                f"--keys must lie in [2, 2**nu] for --nu {args.nu}, got {args.keys}"
            )
    if args.command == "discontinuity-demo":
        args.n_list = _parse_list(args.n_list, int, "--n-list")
        if any(n < 3 for n in args.n_list):
            raise SpecParseError(
                "sequence sources start at n = 3 (at n = 2 the joint is exactly uniform)"
            )


def _check_output_path(path, flag):
    """The directory a run will write ``path`` into exists and is writable."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise SpecParseError(f"{flag} {path}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise SpecParseError(f"{flag} {path}: directory {parent} is not writable")


def _config_from_args(args):
    _check_arguments(args)
    _check_output_path(args.out, "--out")
    if getattr(args, "trace_csv", None):
        _check_output_path(args.trace_csv, "--trace-csv")
    tol = _parse_overrides(args.tol, Tolerances(), _tolerance)
    caps = _parse_overrides(args.cap, Caps(), _cap)
    for f in fields(caps):
        if getattr(caps, f.name) <= 0:
            raise SpecParseError(f"cap {f.name} must be positive")
    return RunConfig(
        command=args.command,
        channel_path=getattr(args, "channel", None),
        source_path=getattr(args, "source", None),
        seed=getattr(args, "seed", None),
        out_path=args.out,
        tol=tol,
        caps=caps,
        extras=vars(args),
    )


def cmd_capacity(cfg):
    w = io.load_channel(cfg.channel_path)
    res = capacity_informed_jammer(w, tol=cfg.tol)
    io.dump_json(io.capacity_result_to_json(res), cfg.out_path)
    if cfg.extras.get("trace_csv"):
        rows = [("iteration", "objective")] + [
            (i, repr(v)) for i, v in enumerate(res.solver_trace)
        ]
        io.write_csv(rows, cfg.extras["trace_csv"])
    return 0


def cmd_cr_capacity(cfg):
    w = io.load_channel(cfg.channel_path)
    src = io.load_source(cfg.source_path)
    res = cr_capacity(w, src, tol=cfg.tol)
    io.dump_json(io.cr_result_to_json(res), cfg.out_path)
    return 0


def cmd_separate(cfg):
    w = io.load_channel(cfg.channel_path)
    src = io.load_source(cfg.source_path)
    gp = build_g_pair(src, w.x_alphabet)
    res = separation_test(w, src, gp, tol=cfg.tol, caps=cfg.caps)
    if isinstance(res, NotSeparable):
        payload = io.not_separable_to_json(res)
    else:
        payload = io.certificate_to_json(res)
    payload["g_pair"] = io.gpair_to_json(gp)
    io.dump_json(payload, cfg.out_path)
    return 0


def cmd_typicality(cfg):
    w = io.load_channel(cfg.channel_path)
    if len(w.s_alphabet) != 1:
        raise SpecParseError(
            "typicality runs on a fixed channel: supply an AVCQC spec with one state"
        )
    cq = CqChannel(w.x_alphabet, w.states[:, 0])
    if cfg.extras.get("p"):
        p = np.array(cfg.extras["p"])
    else:
        p = np.full(len(w.x_alphabet), 1.0 / len(w.x_alphabet))
    rep = verify_typicality_bounds(
        cq,
        p,
        range(cfg.extras["n_min"], cfg.extras["n_max"] + 1),
        cfg.extras["alpha"],
        caps=cfg.caps,
        tol=cfg.tol,
    )
    io.write_csv(rep.to_csv_rows(), cfg.out_path)
    return 0


def cmd_simulate(cfg):
    w = io.load_channel(cfg.channel_path)
    src = io.load_source(cfg.source_path)
    if cfg.extras.get("code"):
        code = io.load_correlation_code(cfg.extras["code"])
    else:
        gp = build_g_pair(src, w.x_alphabet)
        cert = separation_test(w, src, gp, tol=cfg.tol, caps=cfg.caps)
        if isinstance(cert, NotSeparable):
            raise NoSeparatingPrecode(
                "channel/source pair admits no separating pre-code; supply --code"
            )
        code = repetition_precode(
            cert, gp, src, w, num_keys=cfg.extras["keys"], nu=cfg.extras["nu"], caps=cfg.caps
        )
    res = cr_generation_run(w, src, code, cfg.extras["trials"], cfg.seed, caps=cfg.caps)
    rows = [("trial", "v_prime", "v", "j", "decoded", "jammer_choice")]
    rows += [
        (r["trial"], r["v_prime"], r["v"], r["j"], r["decoded"], r["jammer_choice"])
        for r in res["rows"]
    ]
    io.write_csv(rows, cfg.out_path)
    print(
        f"agreement_rate={res['agreement_rate']!r} "
        f"empirical_entropy={res['empirical_entropy']!r}"
    )
    return 0


def _demo_source(n):
    eps = 2.0 ** (-n)
    return CorrelatedSource(
        ("0", "1"), ("0", "1"), np.array([[0.5 - eps, eps], [eps, 0.5 - eps]])
    )


def cmd_discontinuity_demo(cfg):
    delta = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    states = np.stack([[delta, delta], [delta, delta]])
    w = Avcqc(("0", "1"), ("0", "1"), states)
    limit = _demo_source(np.inf)  # eps = 2**-inf = 0: the n -> infinity limit
    from .channels import source_distance

    rows = [("n", "source_distance_to_limit", "cr_capacity")]
    for n in cfg.extras["n_list"]:
        src = _demo_source(n)
        res = cr_capacity(w, src, tol=cfg.tol)
        rows.append((n, repr(source_distance(src, limit)), repr(res.value)))
    res = cr_capacity(w, limit, tol=cfg.tol)
    rows.append(("limit", repr(0.0), repr(res.value)))
    io.write_csv(rows, cfg.out_path)
    return 0


_DISPATCH = {
    "capacity": cmd_capacity,
    "cr-capacity": cmd_cr_capacity,
    "separate": cmd_separate,
    "typicality": cmd_typicality,
    "simulate": cmd_simulate,
    "discontinuity-demo": cmd_discontinuity_demo,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[args.command](cfg)
    except Indeterminate as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
