"""Benchmark for listalign: the train, compress and query workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload runs in this process; ``all`` runs each workload in a process of
its own and prints every end-to-end metric with its unit and the operation
counts. The last stdout line of a single workload is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the environment and the figures under the names
listed in ``perfbench/README.md``. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
WORKLOAD_NAMES = ("train", "compress", "query")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload here; returns (result line, record line)."""
    import tracing
    import workloads

    size = "smoke" if smoke else "full"
    workdir = os.path.join(ROOT, ".perfbench", "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = workloads.Run(workdir, seed, size)
        workload = workloads.WORKLOADS[name](run)
        record = {"workload": name, "seed": seed, "size": size, "env": _environment()}
        if not trace:
            setups = []
            for _ in range(workload.setup_repeats):
                t0 = time.perf_counter()
                workload.warm()
                inputs = workload.prepare()
                setups.append(time.perf_counter() - t0)
            out = workload.phase(seconds)
            workload.verify(out)
            metrics = workload.e2e(out)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = workloads.E2E_UNITS
        else:
            # minimum operation counts, so counts repeat exactly from run to run
            workload.warm()
            tracer = run.tracer = tracing.Tracer()
            tracer.install()
            try:
                begin = time.perf_counter_ns()
                inputs = workload.prepare()
                t0 = time.perf_counter_ns()
                traced = workload.phase(0)
                end = time.perf_counter_ns()
            finally:
                tracer.uninstall()
                run.tracer = None
            workload.verify(traced)
            t1 = time.perf_counter_ns()
            again = workload.phase(0)
            untraced = time.perf_counter_ns() - t1
            workload.verify(again)
            run.figures["trace_overhead_share"] = (end - t0 - untraced) / untraced
            metrics = tracing.layer_metrics(tracer.spans, end - begin, run.figures)
            units = {m: tracing.LAYER_MOVES[m]["unit"] for m in metrics}
            shares = {m.split(".", 1)[1]: metrics[m] for m in metrics if m.startswith("share.")}
            record["share"] = shares
            record["trace_overhead_share"] = run.figures["trace_overhead_share"]
            spans_path = os.path.join(ROOT, ".perfbench", "spans", f"{name}-seed{seed}.jsonl")
            tracer.write(spans_path, {"workload": name, "seed": seed, "share": shares,
                                      "env": record["env"]})
            record["spans"] = os.path.relpath(spans_path, ROOT)
            record["operations"] = [s[4] for s in tracer.spans if s[0].startswith("bench.")]
            record["span_sequence_sha256"] = hashlib.sha256(
                "\n".join(s[0] for s in tracer.spans).encode()
            ).hexdigest()
        record["inputs_sha256"] = workloads.sha256_files(*inputs)
        record["figures"] = run.figures
        record["failures"] = run.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def _run_all(args) -> int:
    failed = False
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed = True
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}: {result['attempted']} operations attempted, {result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        for figure, value in sorted(record["figures"].items()):
            print(f"  ({figure} = {value:.6g})")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        failed |= not result["correct"] or proc.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parse(argv)
    # BLAS reads its thread count when numpy loads. One thread: with one per
    # core, a BLAS call waits for the slower of two shared cores, and the
    # compress figures swung by half from run to run.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "listalign", "__init__.py")):
        print(f"perfbench: no listalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
    if args.trace:
        print("module share of traced wall time:")
        for module, share in sorted(record["share"].items(), key=lambda kv: -kv[1]):
            print(f"  {module:<10} {share:7.2%}")
        print(f"tracing overhead {record['trace_overhead_share']:.2%} of the untraced phase")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
