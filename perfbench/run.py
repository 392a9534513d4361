"""Benchmark of the irs_secrecy solvers: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload inner_heavy --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the workload untraced in a closed loop for ``--seconds``
of busy time (at least its fixed calls) and reports the end-to-end metrics.
``--trace 1`` runs the fixed calls twice, untraced and then with spans
around every layer call, checks that both give the same answers, and
reports the per-layer metrics. The last line of standard output is one
JSON object; the line before it holds the metadata, the answer fingerprints
and the raw wall-clock figures, which are also written under
``perfbench/out/``.

Timings are reported at a reference machine speed. On a shared 2-vCPU
virtual machine the speed drifted by +-20% within seconds, and identical
runs differed by up to a third in wall time; so a fixed reference kernel that does not use
irs_secrecy is timed between every two calls, and each call's time is
scaled by ``REFERENCE_S`` over the mean of the reference times just before
and just after it. The kernel mixes the solvers' kinds of work (small real
matrix products, Hermitian eigendecompositions and complex products,
interpreted Python), so it slows with the machine much as they do. The raw
wall-clock figures are kept in the detail line.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: the solvers work on matrices of at
# most 40 x 40, where BLAS threads only add scheduling noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
REFERENCE_S = 0.008  # reference kernel time that defines the reported speed

_REF_RNG = np.random.default_rng(0)
_REF_MATS = _REF_RNG.standard_normal((16, 8, 8))
_REF_HERM = _REF_RNG.standard_normal((8, 16, 16)) + 1j * _REF_RNG.standard_normal((8, 16, 16))
_REF_HERM = _REF_HERM + _REF_HERM.conj().transpose(0, 2, 1)


def _reference_s() -> float:
    """Time a fixed mix of small numpy calls and interpreted Python."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        prod = _REF_MATS @ _REF_MATS
        acc += float(np.einsum("kij,kji->", prod, _REF_MATS))
    for _ in range(8):
        vals, vecs = np.linalg.eigh(_REF_HERM)
        acc += float(vals[:, -1].sum()) + float(np.abs(vecs @ _REF_HERM).sum())
    for i in range(20000):
        acc += i * 1e-9
    return time.perf_counter() - t0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and prepare the workload's inputs, then exit (timed by the parent)",
    )
    return parser.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    if not (src / "irs_secrecy" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {src}")
    sys.path.insert(0, str(src))
    import irs_secrecy  # noqa: F401
    import workloads

    return workloads


def _run_child(cmd) -> None:
    """Run ``cmd`` to its end; kill it if it outlives ``CHILD_TIMEOUT_S``."""
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the set-up time, so a timer thread enforces the limit instead
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            returncode = proc.wait()
        finally:
            timer.cancel()
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, cmd)


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall and speed-scaled times of fresh processes that set the workload up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    wall, scaled = [], []
    ref = _reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_child(cmd)
        wall.append(time.perf_counter() - t0)
        ref_after = _reference_s()
        scaled.append(wall[-1] * REFERENCE_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return wall, scaled


def _loop(workload, inputs, seconds, tracer=None):
    """Closed loop: the fixed calls first, then until ``seconds`` of busy time.

    Returns the calls, each call's speed scale and the busy (wall) time.
    """
    calls = []
    refs = [_reference_s()]
    busy = 0.0
    i = 0
    while i < workload.fixed_calls or busy < seconds:
        # past the pool the inputs repeat; each pool holds about three times
        # the calls of one run at the speed measured when it was sized
        result = workload.call(inputs[i % len(inputs)])
        if tracer is not None:
            tracer.end_run()
        refs.append(_reference_s())
        calls.append(result)
        busy += result.busy_s
        i += 1
    # the machine's speed changes within a second, so only the two reference
    # times next to a call describe it
    scales = [REFERENCE_S / (0.5 * (refs[i] + refs[i + 1])) for i in range(len(calls))]
    return calls, scales, busy


def _run_ms(calls, scales):
    return [c.busy_s * 1e3 * s for c, s in zip(calls, scales)]


def _fingerprint(calls):
    items = [c.fingerprint for c in calls]
    digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()
    return {"sha256": digest, "calls": items}


def _mean_answer(calls):
    """Mean reported sum secrecy rate over the ok runs of these calls."""
    values = [c.sum_secrecy for c in calls if c.status == "ok"]
    return statistics.fmean(values) if values else math.nan


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _metadata(args, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_s": REFERENCE_S,
        "sizes": workload.sizes,
    }


def _timings(ms, busy_s):
    return len(ms) / busy_s, statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def _end_to_end(workload, calls, scales, busy, setup):
    ms = _run_ms(calls, scales)
    scaled_busy = sum(c.busy_s * s for c, s in zip(calls, scales))
    rate, p50, p90 = _timings(ms, scaled_busy)
    wall_rate, wall_p50, wall_p90 = _timings(_run_ms(calls, [1.0] * len(calls)), busy)
    status = [c.status for c in calls]
    metrics = {
        "runs_per_s": _metric(rate, "1/s"),
        "run_ms_p50": _metric(p50, "ms"),
        "run_ms_p90": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup[1]), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    detail = {
        "runs": len(ms),
        "runs_beyond_p90": sum(m > p90 for m in ms),
        "fail_frac": (len(status) - status.count("ok")) / len(status),
        "wall": {
            "busy_s": busy,
            "runs_per_s": wall_rate,
            "run_ms_p50": wall_p50,
            "run_ms_p90": wall_p90,
            "setup_s": statistics.median(setup[0]),
        },
        "speed_scale_median": statistics.median(scales),
        "fingerprint": _fingerprint(calls[: workload.fixed_calls]),
        "mean_sum_secrecy": _mean_answer(calls[: workload.fixed_calls]),
    }
    return metrics, detail


def _per_layer(tracer, calls, plain_busy, traced_busy):
    c, n, s = tracer.counts, tracer.calls, tracer.self_s
    count = lambda v: _metric(v, "count")  # noqa: E731
    secs = lambda v: _metric(v, "s")  # noqa: E731
    return {
        "convex_inner.solve.calls": count(n["convex_inner.solve"]),
        "convex_inner.solve.s": secs(s["convex_inner.solve"]),
        "convex_inner.iterations": count(c["convex_inner.iterations"]),
        "convex_inner.cap_hits": count(c["convex_inner.cap_hits"]),
        "convex_inner.failures": count(c["convex_inner.failures"]),
        "convex_inner.eigh_calls": count(c["convex_inner.eigh_calls"]),
        "sca.run_sca.calls": count(n["sca.run_sca"]),
        "sca.rounds": count(c["sca.rounds"]),
        "sca.cap_hits": count(c["sca.cap_hits"]),
        "sca.self_s": secs(tracer.layer_self_s("sca")),
        "sca.build_subproblem.calls": count(n["sca.build_subproblem"]),
        "sca.build_subproblem.s": secs(s["sca.build_subproblem"]),
        "manifold.run_cg.calls": count(n["manifold.run_cg"]),
        "manifold.run_cg.s": secs(s["manifold.run_cg"]),
        "manifold.iterations": count(c["manifold.iterations"]),
        "manifold.zero_iter_exits": count(c["manifold.zero_iter_exits"]),
        "manifold.stalls": count(c["manifold.stalls"]),
        "manifold.objective_build_s": secs(s["manifold.PhaseObjective"]),
        "manifold.objective_evals": count(c["manifold.objective_evals"]),
        "orchestrator.runs": count(c["orchestrator.runs"]),
        "orchestrator.self_s": secs(tracer.layer_self_s("orchestrator")),
        "orchestrator.outer_rounds": count(c["orchestrator.outer_rounds"]),
        "orchestrator.outer_cap_hits": count(c["orchestrator.outer_cap_hits"]),
        "metrics.secrecy_rates.calls": count(n["metrics.secrecy_rates"]),
        "metrics.secrecy_rates.s": secs(s["metrics.secrecy_rates"]),
        "answer.mean_sum_secrecy": _metric(_mean_answer(calls), "bit/s/Hz"),
        "trace.overhead_frac": _metric(traced_busy / plain_busy - 1.0, "ratio"),
        "trace.attributed_frac": _metric(
            sum(s.values()) / sum(x.busy_s for x in calls), "ratio"
        ),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.prepare(args.seed)
    if args.setup_only:
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracer import Tracer

        plain, plain_scales, _ = _loop(workload, inputs, 0.0)
        tracer = Tracer(OUT_DIR / f"{stem}-spans.csv")
        tracer.install()
        try:
            calls, scales, _ = _loop(workload, inputs, 0.0, tracer)
        finally:
            tracer.uninstall()
        # the overhead compares speed-scaled busy times of the same calls
        plain_busy = sum(c.busy_s * s for c, s in zip(plain, plain_scales))
        traced_busy = sum(c.busy_s * s for c, s in zip(calls, scales))
        metrics = _per_layer(tracer, calls, plain_busy, traced_busy)
        same = _fingerprint(plain)["sha256"] == _fingerprint(calls)["sha256"]
        detail = {
            "fingerprint": _fingerprint(calls),
            "untraced_fingerprint_matches": same,
            "untraced_scaled_busy_s": plain_busy,
            "traced_scaled_busy_s": traced_busy,
            "span_self_s": dict(tracer.self_s),
            "span_calls": dict(tracer.calls),
        }
        # self times partition the traced calls; more than that means a span
        # was counted twice
        sane = metrics["trace.attributed_frac"]["value"] <= 1.0 + 1e-6
        checks_ok = same and sane
    else:
        setup = _setup_seconds(args)
        # warm-up outside the timing: lazy imports and first-call costs
        workload.call(inputs[-1])
        calls, scales, busy = _loop(workload, inputs, args.seconds)
        metrics, detail = _end_to_end(workload, calls, scales, busy, setup)
        checks_ok = True

    status = [c.status for c in calls]
    detail = {"metadata": _metadata(args, workload), **detail}
    per_call = [
        {"busy_s": c.busy_s, "speed_scale": s, "status": c.status}
        for c, s in zip(calls, scales)
    ]
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**detail, "calls": per_call}, indent=1) + "\n"
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": checks_ok and "wrong" not in status,
        "attempted": len(status),
        "failed": len(status) - status.count("ok"),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
