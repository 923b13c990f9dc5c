"""Benchmark of the EdgeHD hierarchy: served latency, saturation and fleet operations.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-local --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same phases with every layer's public entry
points wrapped in spans and reports the per-layer metrics instead.
Either way the run checks its outputs (served answers equal the offline
walk, one response per request, checkpoints restore to the same
fingerprint) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it holds the environment stamp and the run's details, which are also
written to ``perfbench/out/``. A failed check exits with status 1; a
checkout without ``src/repro`` exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("serve-local", "serve-escalate", "cluster-2w", "fleet-ops")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metric -> unit (reported by untraced runs).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "sat_rps": "req/s",
    "slo_frac": "ratio",
    "ok_frac": "ratio",
    "accuracy": "ratio",
    "peak_rss_mb": "MiB",
    "fit_s": "s",
    "walk_qps": "q/s",
    "checkpoint_s": "s",
    "restore_s": "s",
    "join_s": "s",
    "drain_s": "s",
}

#: per-layer metric -> unit (reported by traced runs).
PER_LAYER = {
    "core.encoding.rows_per_req": "rows",
    "core.encoding.self_ms_per_req": "ms",
    "core.projection.calls_per_req": "count",
    "core.projection.rows_per_req": "rows",
    "core.projection.build_s": "s",
    "core.classifier.predict_self_share": "ratio",
    "core.classifier.retrain_s": "s",
    "hierarchy.federation.encode_at_calls_per_req": "count",
    "hierarchy.federation.encode_at_self_share": "ratio",
    "hierarchy.inference.run_self_s": "s",
    "hierarchy.checkpoint.save_s": "s",
    "hierarchy.checkpoint.load_s": "s",
    "hierarchy.control.refit_nodes": "count",
    "serve.batcher.fill_ratio": "ratio",
    "serve.queueing.wait_p50_ms": "ms",
    "serve.queueing.wait_p99_ms": "ms",
    "serve.queueing.high_water": "count",
    "serve.runtime.gen_late_p50_ms": "ms",
    "serve.runtime.gen_late_p99_ms": "ms",
    "serve.runtime.poll_share": "ratio",
    "serve.runtime.unattributed_share": "ratio",
    "network.medium.hops_per_req": "count",
    "network.medium.wire_bytes_per_req": "B",
    "network.medium.transfer_ms_per_req": "ms",
    "serve.cluster.queue_wait_p50_ms": "ms",
    "serve.cluster.worker_encode_ms": "ms",
    "serve.cluster.worker_walk_ms": "ms",
    "serve.cluster.router_ipc_p50_ms": "ms",
    "serve.cluster.batch_mean": "count",
    "serve.shard.publish_s": "s",
    "serve.shard.bytes": "B",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cap_threads(workload: str) -> int:
    """Set the BLAS/OpenMP thread variables; must run before numpy loads.

    In-process workloads may use every core; the cluster runs two
    workers plus a router on them, so each process gets one thread.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = 1 if workload == "cluster-2w" else nproc
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def blas_threads() -> int | None:
    """Threads OpenBLAS will actually use, asked from the library itself."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_stamp(nproc: int) -> dict:
    """Where and on what this result was measured."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # The benchmark may run from an export that is not a git work tree
    # (or sits inside an unrelated one); a digest of the sources
    # identifies the code either way.
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "REPRO_OBS": os.environ.get("REPRO_OBS"),
        "REPRO_SAN": os.environ.get("REPRO_SAN"),
    }


def stop_children() -> None:
    """End every process this run started and wait for each.

    ``ClusterRuntime.close`` joins the workers; what is left is the
    shared-memory resource tracker that multiprocessing starts by itself.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    nproc = cap_threads(args.workload)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracer import Tracer

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        if args.workload == "fleet-ops":
            outcome = workloads.run_fleet(args.seed, args.seconds, tracer, OUT_DIR)
        else:
            outcome = workloads.run_serving(
                args.workload, args.seed, args.seconds, tracer, OUT_DIR)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop_children()

    names, values = (PER_LAYER, outcome.layers) if args.trace else (END_TO_END, outcome.e2e)
    missing = sorted(set(names) - set(values))
    if missing:
        outcome.check(False, f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names.items() if name in values
    }
    correct = not outcome.failed_checks
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_stamp(nproc), "checks_failed": outcome.failed_checks,
        "detail": outcome.detail, "metrics": metrics,
    }
    if tracer is not None:
        report["spans_written"] = tracer.dump(OUT_DIR / f"{stem}.spans.jsonl")
    record = dict(report, samples=outcome.samples)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({k: report[k] for k in ("env", "checks_failed", "detail")}, default=float))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
