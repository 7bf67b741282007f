#!/usr/bin/env python3
"""Fixed-seed benchmark of sensorplace, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload piv-cli --seed 1 --seconds 30 --trace 0

Workloads are ``piv-cli``, ``mc-random`` and ``recon-study`` (see
bench/README.md).  A run builds its inputs from ``--seed``, repeats whole
rounds of the workload for about ``--seconds`` seconds (at least two rounds),
checks the program's outputs against independent oracles, writes a full
result record under ``.bench_results/`` and prints, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the public functions of every module are wrapped in spans and
the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5
MIN_ROUNDS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
    "recon_error": "relative",
    "logdet_gain": "nats",
}


def single_blas_thread() -> int:
    """Run BLAS on one thread; returns the number of CPUs this process may use.

    On the 2-vCPU host this benchmark was written on, the two vCPUs slow each
    other down about twofold when both are busy, so a second BLAS thread,
    spinning between calls, slows the Python thread more than it helps.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def load_program():
    """Import sensorplace from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sensorplace
        import sensorplace.cli
        import sensorplace.fileio
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import sensorplace from {src}: {exc}")
    if Path(sensorplace.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: sensorplace came from {sensorplace.__file__}, not {src}")
    return sensorplace


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up.

    The child imports sensorplace and builds the workload's inputs through the
    program's constructors, then reports the clock; it writes no files.
    """
    start = clock()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    ready = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"bench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(ready[-1].split()[1]) - start


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["vendor"] = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                break
    return info


def environment(nproc: int) -> dict:
    import hashlib

    import numpy as np
    import scipy

    git_rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    return {
        "git_rev": git_rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": nproc,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run_rounds(wl, seconds: float, tracer) -> list:
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.round = len(rounds)
        rounds.append(wl.run_round())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.seconds for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["piv-cli", "mc-random", "recon-study"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=str(ROOT / ".bench_results"),
                        help="directory for the full result records (default .bench_results)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = single_blas_thread()
    sp = load_program()
    import tracing
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(sp, args.seed, workdir=None).build_inputs()
        print(f"READY {clock()!r}", flush=True)
        return 0

    setup_samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    tracer = tracing.Tracer(run_id) if args.trace else None
    workdir = ROOT / ".bench_work" / run_id
    workdir.mkdir(parents=True)
    try:
        wl = workload_cls(sp, args.seed, workdir, tracer)
        wl.build_inputs()
        wl.prepare()
        if tracer:
            with tracing.install(tracer, sp):
                rounds = run_rounds(wl, args.seconds, tracer)
        else:
            rounds = run_rounds(wl, args.seconds, None)
        quality = wl.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pass_s = wl.pass_seconds(rounds)
    e2e_values = {
        "setup_s": statistics.median(setup_samples),
        "pipeline_s": pass_s,
        "trials_per_s": rounds[0].trials / pass_s,
        "peak_rss_mb": peak_rss_mb,
        "recon_error": quality["recon_error"],
        "logdet_gain": quality["logdet_gain"],
    }
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e_values.items()}
    per_layer = {}
    if tracer:
        by_round = tracing.layer_metrics_by_round(tracer.spans)
        for metric, (unit, _) in tracing.LAYER_METRICS.items():
            values = [by_round.get(i, {}).get(metric, 0.0) for i in range(len(rounds))]
            per_layer[metric] = {"value": statistics.median(values), "unit": unit}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not wl.failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": run_id,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": wl.failures,
        "rounds": len(rounds),
        "round_seconds": [r.seconds for r in rounds],
        "round_parts_s": [list(r.parts) for r in rounds],
        "median_round_s": statistics.median(r.seconds for r in rounds),
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": wl.details,
        "environment": environment(nproc),
    }
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        tracer.write(results / f"{run_id}.spans.jsonl")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas'].get('vendor')} threads={env['blas'].get('threads')} nproc={nproc}")
    for failure in wl.failures:
        print(f"# CHECK FAILED: {failure}")
    shown = per_layer if tracer else end_to_end
    for name, metric in shown.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
