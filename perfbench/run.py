"""avcqc benchmark: seeded job workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload maxmin-solve --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job starts when the previous one
ends.  A run measures a fixed number of passes over the workload's job list
(``workloads.PASSES``), which takes about ``--seconds`` on the host the
benchmark was calibrated on; ``--seconds`` is recorded, not enforced: a
pass count that followed the clock would change the tail percentile and the
peak memory with the host's speed.  BLAS runs on one thread and there is no
worker pool.  ``setup_s`` is the median over
``SETUP_PROBES`` fresh interpreters of the time from starting one to its
first job being ready.

Every time metric is scaled to the reference host speed: the run times a
fixed kernel (``hostspeed``) every 0.1 s through each pass, and right before
and after each set-up probe, and scales each span by ``REFERENCE_S`` over
the kernel's mean time during it, which cancels the host's slow and fast
phases.  The raw times are printed and recorded beside the scaled ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass of the same seed and reports the per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (the
environment, every job's latency, status and reference error, and the
ROADMAP-case times) goes to ``.perfbench/results/``; the traced run writes
its spans to ``.perfbench/spans/``.
"""

import os
import sys
import time

# single-threaded BLAS baseline; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import hostspeed  # noqa: E402

SETUP_PROBES = 7
WARM_KERNELS = 20   # untimed kernel runs before the first pass
OUT_DIR = ".perfbench"

# ROADMAP open-items baseline (single scratch runs, +-20%): tag -> (low, high) seconds
ROADMAP_TIMES = {
    "solver 3x3, d=3": (3.5, 3.5),
    "solver 4x4, d=4": (9.9, 9.9),
    "evaluator n=6, J=4": (0.95, 0.95),
    "evaluator n=8, J=4": (3.0, 3.0),
    "separation |X|=2": (0.6, 1.0),
    "separation |X|=3": (0.6, 1.0),
    "separation |X|=4": (0.6, 1.0),
    "separation |X|=5": (0.6, 1.0),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-specs", "maxmin-solve", "finite-block"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the job list, warm up, print "ready" and exit
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(root, np):
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "avcqc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root):
    """HEAD commit read from .git without running git; 'none' outside a repository."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "none"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


class Runner:
    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.first_fp = {}     # job name -> fingerprint of its first checked output
        self.records = []      # one dict per attempted job, all passes
        self.passes = []       # (traced, raw seconds, scaled seconds) of the pass's jobs
        self.kernel_s = []     # host-speed kernel times sampled during untraced passes

    def run_pass(self, traced=False):
        sink = io.StringIO()
        done = []
        sampler = hostspeed.Sampler()
        with contextlib.nullcontext() if traced else sampler:
            for job in self.jobs:
                done.append(self._run_job(job, traced, sink, sampler, len(done)))
        for job, rec, out in done:
            span = rec.pop("span")
            if not traced:
                rec["scaled_s"] = sampler.scale(*span, rec["latency_s"])
        self.kernel_s += sampler.kernel
        self.passes.append((traced, sum(rec["latency_s"] for _, rec, _ in done),
                            None if traced else sum(rec["scaled_s"] for _, rec, _ in done)))
        for job, rec, out in done:          # reference checks, outside every timed span
            if rec["status"] == "ok":
                self._check(job, rec, out)
            self.records.append(rec)
        return self.passes[-1]

    def _run_job(self, job, traced, sink, sampler, index):
        rec = {"pass": len(self.passes), "job": job.name, "traced": traced}
        out = None
        if traced:
            self.tracer.job = len(self.records) + index
            self.tracer.active = True
        spent = sampler.spent
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                out = job.run()
            rec["status"] = "ok"
        except Exception as exc:  # a failed job is recorded, never fatal to the run
            rec["status"] = "error " + type(exc).__name__
            rec["message"] = str(exc)[:300]
        end = time.perf_counter()
        # the host-speed handler's time inside the job is not the job's
        rec["latency_s"] = end - t - (sampler.spent - spent)
        rec["span"] = (t, end)
        if traced:
            self.tracer.active = False
        sink.seek(0)
        sink.truncate()
        return job, rec, out

    def _check(self, job, rec, out):
        try:
            fp = job.fingerprint(out)
            if job.name not in self.first_fp:
                err = float(job.check(out))
                if not math.isfinite(err):      # keeps the printed JSON valid
                    err = 1.0
                self.first_fp[job.name] = fp
                rec["ref_err"] = err
                rec["ref_ok"] = err <= job.tol
            else:   # later passes of the same seed must repeat the checked output exactly
                rec["ref_err"] = 0.0
                rec["ref_ok"] = fp == self.first_fp[job.name]
                if not rec["ref_ok"]:
                    rec["message"] = "output differs from the first pass"
        except (ArithmeticError, LookupError, OSError, TypeError, ValueError) as exc:
            rec["ref_err"] = 1.0
            rec["ref_ok"] = False
            rec["message"] = f"reference check raised {type(exc).__name__}: {exc}"[:300]

    @staticmethod
    def failed(rec):
        return rec["status"].startswith("error") or rec.get("ref_ok") is False


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    lat = sorted(latencies)
    k = max(len(lat) - 11, 0)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - 1 - k


def roadmap_rows(records):
    rows = []
    for tag, (lo, hi) in ROADMAP_TIMES.items():
        times = [r["latency_s"] for r in records if r.get("roadmap") == tag and not r["traced"]]
        if not times:
            continue
        t = statistics.median(times)
        rows.append({"case": tag, "median_s": t, "roadmap_s": [lo, hi],
                     "beyond_20pct": not (0.8 * lo <= t <= 1.2 * hi)})
    return rows


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "avcqc", "__init__.py")):
        print("perfbench: src/avcqc not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import avcqc
    if not os.path.abspath(avcqc.__file__).startswith(src + os.sep):
        print(f"perfbench: avcqc imported from {avcqc.__file__}, not {src}", file=sys.stderr)
        return 2

    out_root = os.path.join(root, OUT_DIR)
    scratch = os.path.join(out_root, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.setup_only:
            import workloads
            workloads.build(args.workload, args.seed, root, scratch)
            workloads.warm_up(args.workload, scratch)
            print("ready", flush=True)
            return 0
        return measure(args, root, scratch, out_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def probe_setup(args, root):
    """Seconds (raw, scaled) from starting a fresh interpreter to its first job being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    before = hostspeed.median_sample()
    t = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    kernel = (before + hostspeed.median_sample()) / 2.0
    return elapsed, elapsed * hostspeed.REFERENCE_S / kernel


def measure(args, root, scratch, out_root):
    import numpy as np

    import avcqc
    import tracing
    import workloads

    jobs = workloads.build(args.workload, args.seed, root, scratch)
    workloads.warm_up(args.workload, scratch)
    for _ in range(WARM_KERNELS):
        hostspeed.sample()
    setup_probes = [] if args.trace else [probe_setup(args, root) for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(jobs, tracer)
    if args.trace:
        runner.run_pass()
        modules = [avcqc] + [m for k, m in sorted(sys.modules.items()) if k.startswith("avcqc.")]
        tracer.install(modules)
        try:
            runner.run_pass(traced=True)
        finally:
            tracer.uninstall()
    else:
        for _ in range(workloads.PASSES[args.workload]):
            runner.run_pass()

    roadmap = {j.name: j.roadmap for j in jobs if j.roadmap}
    for rec in runner.records:
        rec["roadmap"] = roadmap.get(rec["job"])
    records = runner.records
    failed = [r for r in records if runner.failed(r)]
    misses = [r for r in records if r.get("ref_ok") is False]
    ref_errs = [r["ref_err"] for r in records if "ref_err" in r]
    ref_err_max = max(ref_errs) if ref_errs else 0.0
    failed_frac = len(failed) / len(records)

    untraced = [r for r in records if not r["traced"]]
    lat = [r["scaled_s"] for r in untraced]
    walls = [p for p in runner.passes if not p[0]]
    t_tail, pct, beyond = tail(lat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        traced_wall = next(w for traced, w, _ in runner.passes if traced)
        layer, named_s = tracing.layer_metrics(tracer.spans)
        layer["trace.overhead_s"] = traced_wall - walls[0][1]
        layer["trace.layer_share"] = named_s / traced_wall
        layer["check.ref_err_max"] = ref_err_max
        layer["check.failed_frac"] = failed_frac
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": statistics.median(s for _, s in setup_probes),
            "wall_s": statistics.median(s for _, _, s in walls),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": t_tail,
        }
        metrics = {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        raw = {
            "setup_s": statistics.median(r for r, _ in setup_probes),
            "wall_s": statistics.median(r for _, r, _ in walls),
            "job_p50_s": statistics.median(r["latency_s"] for r in untraced),
        }

    env = environment(root, np)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "raw_s": {} if args.trace else raw,
        "kernel_s": {"median": statistics.median(runner.kernel_s), "min": min(runner.kernel_s),
                     "max": max(runner.kernel_s), "reference": hostspeed.REFERENCE_S},
        "job_tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
        "failed_frac": failed_frac, "passes": runner.passes,
        "roadmap_cases": roadmap_rows(records), "jobs": records,
        "setup_probes_s": setup_probes,
    }
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_root, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        os.makedirs(os.path.join(out_root, "spans"), exist_ok=True)
        tracer.dump(os.path.join(out_root, "spans", stem + ".json"))

    report(args, env, record, failed, misses, tracing.top_paths(tracer.spans) if tracer else [])
    print(json.dumps({"correct": not misses, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share", "frac")):
        return "ratio"
    if metric == "check.ref_err_max":
        return "abs"
    return "count"


def report(args, env, record, failed, misses, top_paths):
    """Human-readable lines; the JSON result line follows them."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace} | python {env['python']} "
          f"numpy {env['numpy']} {env['blas']} threads=1 | {env['cpu']} nproc={env['nproc']} "
          f"| commit {env['git_commit'][:12]} src {env['src_sha256'][:12]}")
    ks = record["kernel_s"]
    print(f"#   host-speed kernel {ks['median'] * 1e3:.3f} ms median ({ks['min'] * 1e3:.3f}-"
          f"{ks['max'] * 1e3:.3f}), reference {ks['reference'] * 1e3:.3f} ms; times below are scaled")
    for name, m in record["metrics"].items():
        extra = ""
        if name in record["raw_s"]:
            extra += f"  (raw {record['raw_s'][name]:.6g} s)"
        if name == "job_tail_s":
            jt = record["job_tail"]
            extra += f"  (p{jt['percentile']:.1f} of {jt['samples']} jobs, {jt['beyond']} beyond)"
        print(f"#   {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"#   failed_frac = {record['failed_frac']:.4g} ({len(failed)} of {len(record['jobs'])})")
    for rec in failed:
        print(f"#   FAILED {rec['job']} pass {rec['pass']}: {rec['status']} {rec.get('message', '')}")
    for rec in misses:
        print(f"#   REFERENCE MISS {rec['job']}: err {rec['ref_err']:.3g}")
    for row in record["roadmap_cases"]:
        lo, hi = row["roadmap_s"]
        span = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        flag = "  differs by more than 20%" if row["beyond_20pct"] else ""
        print(f"#   ROADMAP {row['case']}: {row['median_s']:.3f} s (ROADMAP {span} s){flag}")
    for path, self_s in top_paths:
        print(f"#   self {self_s:8.3f} s  {path}")


if __name__ == "__main__":
    sys.exit(main())
