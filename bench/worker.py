"""One fresh-interpreter benchmark process; run.py starts it.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py loop  --workload W --seed N --seconds S
    python3 bench/worker.py pass  --workload W --seed N [--traced] [--spans FILE]

`setup` times importing the package, generating the workload's inputs and
parsing them, then times the calibration kernel (calibration.py) three
times.  `loop` runs the workload closed-loop, one operation at a time,
until `--seconds` have passed and the pool has run at least once, and
times the calibration kernel between every two operations.
`pass` runs the pool exactly once, so its work counts are deterministic,
optionally under the tracer.  Each mode prints one JSON object.
"""

from __future__ import annotations

import time

# `setup` counts from here, so numpy's import is part of the package's.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402  (bench/ is the script directory)

CALIBRATION_WARMUP = 5


def _setup(args):
    import higher_holonomy  # noqa: F401

    pool = wl.make_pool(args.workload, args.seed)
    for op in pool:
        wl.parse(op)
    setup_s = time.perf_counter() - T0
    import calibration

    calibration.timed()  # first call pays numpy's lazy set-up
    return {"setup_s": setup_s, "c": [calibration.timed() for _ in range(3)]}


def _run_op(index, op):
    t0 = time.perf_counter()
    try:
        text = wl.execute(op)
        elapsed = time.perf_counter() - t0
        chk = wl.check(op, text)
    except Exception as exc:  # raising, or a report the check cannot read, fails it
        return {"i": index, "t": time.perf_counter() - t0, "hash": None, "ok": False,
                "raised": True, "problems": [f"raised {type(exc).__name__}: {exc}"],
                "share": None}
    return {"i": index, "t": elapsed, "hash": wl.digest(text), "ok": chk.ok,
            "raised": False, "problems": list(chk.problems), "share": chk.share}


def _loop(args):
    import calibration

    pool = wl.make_pool(args.workload, args.seed)
    for _ in range(CALIBRATION_WARMUP):
        calibration.timed()
    deadline = time.perf_counter() + args.seconds
    before = calibration.timed()
    ops = []
    k = 0
    while k < len(pool) or time.perf_counter() < deadline:
        op = _run_op(k % len(pool), pool[k % len(pool)])
        after = calibration.timed()
        op["pass"] = k // len(pool)
        op["c"] = (before, after)
        ops.append(op)
        before = after
        k += 1
    return {"ops": ops}


def _pass(args):
    pool = wl.make_pool(args.workload, args.seed)
    if not args.traced:
        return {"ops": [_run_op(i, op) for i, op in enumerate(pool)]}

    import tracing

    tracer = tracing.Tracer()
    ops = []
    with tracer:
        for i, op in enumerate(pool):
            span = tracer.begin_op(i, wl.shape_of(op))
            ops.append(_run_op(i, op))
            tracer.end_op(span)
    if args.spans:
        tracer.save(args.spans)
    return {"ops": ops, "layers": tracing.layer_metrics(tracer),
            "per_kind": tracing.per_kind_counts(tracer),
            "scaling": tracing.resolution_scaling(wl.make_pool("sweep", args.seed)[0])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here (.npz)")
    args = parser.parse_args(argv)
    out = {"setup": _setup, "loop": _loop, "pass": _pass}[args.mode](args)
    import higher_holonomy
    import numpy

    out["numpy"] = numpy.__version__
    out["module_file"] = os.path.abspath(higher_holonomy.__file__)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
