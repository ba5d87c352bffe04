"""Seeded end-to-end and per-layer benchmark of the higher-holonomy CLI.

    python3 bench/run.py --workload {sweep,probes,loops,fields} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
its src/ directory, never from an installed copy.  With --trace 0 the
workload runs closed-loop (one client, one fresh worker process, one
operation at a time) for S seconds, timing a fixed calibration kernel
between every two operations, and the end-to-end metrics are reported in
seconds of a reference host (calibration.py).  `attempted` and `failed`
count the pool's inputs once each, however often the loop repeated them;
a repeat must give the same report bytes.  With --trace 1 the workload's
pool runs once untraced and once under span-recording wrappers, and the
per-layer metrics are reported with the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import REFERENCE_S  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, is_reference, shape_of  # noqa: E402

SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 170
# Single-threaded numerical libraries: one client, one core's worth of work.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(mode, workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), *extra]
    env = {**os.environ, **WORKER_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "higher_holonomy", "__init__.py")
    if out["module_file"] != expected:
        raise BenchError(f"worker imported {out['module_file']}, not {expected}")
    return out


def _percentile(values, p):
    """Nearest-rank percentile."""
    return sorted(values)[max(1, math.ceil(p / 100 * len(values))) - 1]


def _rescaled(t, calibration):
    """A wall time in seconds of the reference host: `t` divided by the
    calibration kernel's mean time around it, times that kernel's time on
    the reference host (calibration.py)."""
    return t * REFERENCE_S / statistics.fmean(calibration)


def _mix_time(pool, ops, kind):
    """Time per `kind` operation at the pool's mix of input shapes: the
    median of each shape's rescaled times, weighted by the shape's share of
    the pool.  Shapes of one command can differ in cost several-fold
    (eg:SU(2) and b_u1 round trips), so one median over all of them would
    report whichever cluster it fell in."""
    weights = {}
    for op in pool:
        if op.kind == kind:
            weights[shape_of(op)] = weights.get(shape_of(op), 0) + 1
    total = 0.0
    for shape, weight in weights.items():
        times = [_rescaled(o["t"], o["c"]) for o in ops if shape_of(pool[o["i"]]) == shape]
        total += weight * statistics.median(times)
    return total / sum(weights.values())


def _timing_line(name, unit, values, raw, gated=None):
    """A median of rescaled times with its sample count and the highest
    percentile that has at least ten samples beyond it, after the gated
    figure if it differs, and the median of the raw wall times."""
    n = len(values)
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        tail = f"p{p} {_percentile(values, p):.6g}"
    else:
        tail = "no percentile has ten samples beyond it"
    head = "" if gated is None else f"gated {gated:.6g} {unit}, "
    return (f"  {name:<24} {head}median {statistics.median(values):.6g} {unit}, n={n}, "
            f"{tail}; raw wall median {statistics.median(raw):.6g} {unit}")


def _metadata(args, worker_out):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_DIR": os.path.join(ROOT, ".git")})
        sha = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "higher_holonomy", "*.py"))):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": worker_out["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def _verdict(pool, ops, runs):
    """The self-check and the lines listing failed operations.  `ops` holds
    one execution of each input of the pool.  `correct` means no execution
    raised and each input gave the same report bytes every time it ran, in
    every run of `runs`, so a repeat fails exactly when its first run does."""
    hashes = {}
    for run in runs:
        for o in run:
            if o["hash"] is not None:
                hashes.setdefault(o["i"], set()).add(o["hash"])
    unstable = sorted(pool[i].name for i, h in hashes.items() if len(h) > 1)
    failed = [o for o in ops if not o["ok"]]
    lines = [f"failed operations: {len(failed)} of {len(ops)} inputs "
             f"(fail_rate {len(failed) / len(ops):.4g})"]
    lines += [f"  {pool[o['i']].name}: {'; '.join(o['problems'])}" for o in failed]
    if unstable:
        lines.append(f"reports not byte-identical for the same input: {', '.join(unstable)}")
    raised = any(o["raised"] for run in runs for o in run)
    return not raised and not unstable, lines


def _end_to_end(args, pool):
    setups = [_worker("setup", args.workload, args.seed) for _ in range(SETUP_REPEATS + 1)]
    setups = setups[1:]  # the first one compiles the bytecode
    setup_times = [_rescaled(s["setup_s"], s["c"]) for s in setups]
    out = _worker("loop", args.workload, args.seed, "--seconds", str(args.seconds))
    timed = out["ops"]
    ops = [o for o in timed if o["pass"] == 0]
    correct, lines = _verdict(pool, ops, [timed])

    ref = [o["share"] for o in ops if is_reference(pool[o["i"]]) and o["share"] is not None]
    if not ref:
        raise BenchError("no reference operation produced a report")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "tolerance_share": (max(ref), "ratio"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    print(f"end-to-end metrics (tracing off; times in seconds of the reference host, "
          f"{len(timed)} operations timed):")
    print(_timing_line("setup_s", "s", setup_times, [s["setup_s"] for s in setups]))
    for slot, kind in zip(("op1_s", "op2_s"), WORKLOADS[args.workload]):
        of_kind = [o for o in timed if pool[o["i"]].kind == kind]
        metrics[slot] = (_mix_time(pool, timed, kind), "s")
        print(_timing_line(f"{kind}_s ({slot})", "s",
                           [_rescaled(o["t"], o["c"]) for o in of_kind],
                           [o["t"] for o in of_kind], metrics[slot][0]))
        for shape in sorted({shape_of(op) for op in pool if op.kind == kind}):
            of_shape = [o for o in of_kind if shape_of(pool[o["i"]]) == shape]
            print(_timing_line(f"  {shape}", "s", [_rescaled(o["t"], o["c"]) for o in of_shape],
                               [o["t"] for o in of_shape]))
    calibration = [o["c"][1] for o in timed]
    print(f"  {'calibration kernel':<24} median {statistics.median(calibration):.6g} s, "
          f"n={len(calibration)}, reference {REFERENCE_S:g} s")
    print(f"  {'tolerance_share':<24} {metrics['tolerance_share'][0]:.6g} ratio "
          f"(largest error / pinned tolerance over the {len(ref)} reference reports)")
    worst = max((o for o in ops if o["share"] is not None), key=lambda o: o["share"])
    print(f"  {'largest share, any input':<24} {worst['share']:.6g} ratio "
          f"({pool[worst['i']].name}; not gated: it varies with the seed)")
    print(f"  {'peak_rss_mb':<24} {out['peak_rss_mb']:.6g} MB")
    return correct, lines, ops, metrics, out


def _traced(args, pool):
    plain = _worker("pass", args.workload, args.seed)
    spans_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.npz")
    traced = _worker("pass", args.workload, args.seed, "--traced", "--spans", spans)
    ops = traced["ops"]
    correct, lines = _verdict(pool, ops, [plain["ops"], ops])

    layers = dict(traced["layers"])
    layers["trace.overhead"] = (sum(o["t"] for o in ops) / sum(o["t"] for o in plain["ops"]))
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    print(f"per-layer metrics (one traced pass of {len(pool)} operations; spans in {spans}):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print("work counts per operation shape (median over the pass):")
    for shape, counts in sorted(traced["per_kind"].items()):
        print(f"  {shape:<16} " + ", ".join(f"{k} {v:g}" for k, v in counts.items()))
    print("resolution scaling of one sweep surface_transport (not gated):")
    for row in traced["scaling"]:
        print(f"  {row['size']:<6} {row['n_steps_path']:>4}/{row['n_steps_surface_s']:>3}/"
              f"{row['n_quad_t']:>3}  {row['seconds']:.4f} s  line_steps {row['line_steps']}  "
              f"{1e6 * row['seconds'] / row['line_steps']:.2f} us/line-step")
    return correct, lines, ops, metrics, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "higher_holonomy", "__init__.py")):
        sys.stderr.write(f"error: no package source under {ROOT}/src; run from a checkout\n")
        return 2
    from workloads import make_pool

    pool = make_pool(args.workload, args.seed)
    try:
        run = _traced if args.trace else _end_to_end
        correct, lines, ops, metrics, out = run(args, pool)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for line in lines:
        print(line)
    print("meta: " + json.dumps(_metadata(args, out), sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
