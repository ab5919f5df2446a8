"""molsets benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload train|screen|predict_cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ./src of
that checkout and nowhere else. With --trace 0 the run sets up the
workload several times, measures for S seconds, checks the outputs and
prints the end-to-end metrics, every time counted at the reference speed
of speed.py so that the host's slow phases cancel out. With --trace 1 it
measures S/2 seconds untraced and S/2 seconds traced, checks that both
give the same output hashes, and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details (machine, sample counts, hashes, spans) go to .perfbench_out/.
"""

from __future__ import annotations

import os

# One process, no worker pool, and BLAS capped at one thread (the matrices
# are tiny; BLAS threads would only add noise). Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 4  # set-ups before the measured loop, and again after it


def _import_molsets():
    """Import molsets from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "molsets", "__init__.py")):
        sys.stderr.write(f"perfbench: no molsets package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import molsets

    if not os.path.abspath(molsets.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: molsets imported from {molsets.__file__}, not {SRC}\n")
        sys.exit(2)


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_cap": int(BLAS_THREADS),
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(out, setup_seconds: list[float]) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count)."""
    rates = [m / s for m, s in zip(out.mixtures, out.op_seconds)]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "mixtures_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(out.latencies_ms),
        "op_p90_ms": p90(out.latencies_ms),
    }
    samples = {
        "setup_s": len(setup_seconds),
        "mixtures_per_s": len(rates),
        "op_p50_ms": len(out.latencies_ms),
        "op_p90_ms": len(out.latencies_ms),
    }
    return values, samples


UNITS = {"setup_s": "s", "mixtures_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def aliases(workload: str, values: dict, samples: dict, out, verdict) -> dict:
    """The same figures under the names the workload's users know them by:
    name -> (value, unit, sample count)."""
    named = {"failed_share": (verdict.failed / verdict.attempted, "ratio", verdict.attempted)}
    if workload == "train":
        named["train_mixtures_per_s"] = (values["mixtures_per_s"], "1/s", samples["mixtures_per_s"])
        named["train_step_p50_ms"] = (values["op_p50_ms"], "ms", samples["op_p50_ms"])
        named["train_step_p90_ms"] = (values["op_p90_ms"], "ms", samples["op_p90_ms"])
        named["train_val_mse"] = (verdict.extra["train_val_mse"], "log10(S/cm)^2", 1)
    elif workload == "screen":
        named["screen_candidates_per_s"] = (values["mixtures_per_s"], "1/s", samples["mixtures_per_s"])
    else:
        lat = out.latencies_ms
        named["predict_p50_ms"] = (values["op_p50_ms"], "ms", len(lat))
        named["predict_p99_ms"] = (statistics.quantiles(lat, n=100, method="inclusive")[98], "ms", len(lat))
        for conv, conv_lat in verdict.extra["per_conv_latencies_ms"].items():
            named[f"predict_p50_ms.{conv}"] = (statistics.median(conv_lat), "ms", len(conv_lat))
    return named


def timed_setups(wl, seed, scale, spans):
    state = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, scale, OUT_DIR)
        spans.append((t0, time.perf_counter()))
    return state


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Run one workload; returns the full report (its "result" is what the
    last output line carries)."""
    import speed
    import tracing
    import workloads

    scale = scale or workloads.FULL
    wl = workloads.WORKLOADS[workload]
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    report["machine"] = machine()

    if not trace:
        setup_spans = []
        probe = speed.SpeedProbe()
        probe.start()
        try:
            state = timed_setups(wl, seed, scale, setup_spans)
            gc.collect()
            out = wl.loop(state, seconds)
            timed_setups(wl, seed, scale, setup_spans)
        finally:
            probe.stop()
        wall = {"setup_s": [b - a for a, b in setup_spans], "op_s": out.op_seconds,
                "latency_ms": out.latencies_ms}
        # Every reported time is counted at the reference speed (speed.py).
        out.measure(probe.seconds)
        verdict = wl.check(state, out, scale)
        setup_times = [probe.seconds(a, b) for a, b in setup_spans]
        values, samples = end_to_end(out, setup_times)
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        report["samples"] = samples
        report["wall"] = wall
        report["reference"] = {"setup_s": setup_times, "op_s": out.op_seconds, "latency_ms": out.latencies_ms}
        report["kernel_ms"] = probe.kernel_ms
        report["aliases"] = {
            k: {"value": v, "unit": u, "n": n}
            for k, (v, u, n) in aliases(workload, values, samples, out, verdict).items()
        }
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            state = timed_setups(wl, seed, scale, [])
        finally:
            tracer.uninstall()
        gc.collect()
        plain = wl.loop(state, seconds / 2)
        gc.collect()
        tracer.install()
        try:
            counter = itertools.count()
            traced = wl.loop(state, seconds / 2, mark=lambda: tracer.begin(next(counter)))
        finally:
            tracer.uninstall()
        verdict = wl.check(state, traced, scale)
        plain_verdict = wl.check(state, plain, scale)
        verdict.attempted += plain_verdict.attempted + 1
        verdict.failed += plain_verdict.failed
        verdict.notes += plain_verdict.notes
        if plain_verdict.hashes != verdict.hashes:
            verdict.failed += 1
            verdict.notes.append(f"traced hashes {verdict.hashes} != untraced {plain_verdict.hashes}")
        ratio = statistics.median(traced.latencies_ms) / statistics.median(plain.latencies_ms)
        n_ops = len(traced.latencies_ms) if workload == "predict_cold" else len(traced.results)
        layer = tracer.metrics(n_ops, ratio)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl.gz"))

    report["hashes"] = verdict.hashes
    report["notes"] = verdict.notes[:20]
    report["result"] = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "screen", "predict_cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_molsets()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"machine: {json.dumps(report['machine'])}")
    result = report["result"]
    for name, metric in result["metrics"].items():
        count = report.get("samples", {}).get(name)
        suffix = f" (n={count})" if count is not None else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    for name, metric in report.get("aliases", {}).items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} (n={metric['n']})")
    print(f"hashes: {json.dumps(report['hashes'])}")
    if report.get("absent"):
        print(f"absent (reported as 0): {', '.join(report['absent'])}")
    for note in report["notes"]:
        print(f"FAILED: {note}")
    print(f"attempted {result['attempted']}, failed {result['failed']}; details in {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
