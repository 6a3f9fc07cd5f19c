"""Serving-stack benchmark: ``hot``, ``cold`` and ``write-mix`` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Prints each metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones. Exits non-zero
without a result line if anything fails, including when the program's
sources (``src/repro``) are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The whole run, preparation included, must end within this.
RUN_LIMIT_S = 170
BACKEND = "columnar"


def _alarm(signum, frame):
    raise TimeoutError(f"benchmark exceeded {RUN_LIMIT_S}s")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment(seed: int) -> dict:
    import numpy

    import inputs

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": BACKEND,
        "scale": inputs.SCALE,
        "seed": seed,
        "fsync": "batch",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {ROOT}/src/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads}", file=sys.stderr)
        return 2
    # The columnar layout is the one every process of the run serves
    # from (the server and the write-mix driver inherit this); the
    # hashdict layout is not measured.
    os.environ["REPRO_BACKEND"] = BACKEND
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(
        out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        trace = bool(args.trace)
        if args.workload == "write-mix":
            outcome = wl.run_write_mix(args.seed, args.seconds, trace, ROOT,
                                       workdir)
        else:
            outcome = wl.run_http(args.workload, args.seed, args.seconds,
                                  trace, ROOT, workdir)
        signal.alarm(0)
        env = environment(args.seed)
    except Exception:  # noqa: BLE001 — report and exit non-zero
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        _keep_artifacts(workdir, out_dir, args)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    produced = outcome.layers if trace else outcome.end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    report = {"workload": args.workload, "environment": env,
              **outcome.report, "end_to_end": outcome.end_to_end,
              "layers": outcome.layers}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    print("environment: " + json.dumps(env))
    for key in ("window_seconds", "latency_samples", "setup_samples_s",
                "wrong", "problems"):
        if key in outcome.report:
            print(f"{key}: {outcome.report[key]}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _keep_artifacts(workdir: str, out_dir: str, args) -> None:
    """Keep span files and logs; drop the snapshots and copies."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name in os.listdir(workdir):
        if name.endswith((".jsonl", ".log")):
            shutil.move(os.path.join(workdir, name),
                        os.path.join(out_dir, f"{tag}-{name}"))
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
