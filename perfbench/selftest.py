"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny scale, untraced and traced, and checks that
each run passes its own checks, that every metric BENCHMARK.json names
appears with its unit, and that traced and untraced runs agree. It then
perturbs one output of each workload and checks that the perturbation is
counted as a failure, and checks that the benchmark refuses to run when
the molsets sources are missing. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread cap before numpy loads

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_runs(spec: dict, workloads) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, e2e), (True, layer)):
            report = run.run(name, seed=0, seconds=0.5, trace=trace, scale=workloads.TINY)
            result = report["result"]
            tag = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: passes its checks ({result['attempted']} attempted, notes {report['notes']})")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: reports exactly the named metrics with their units")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{tag}: every value is finite")
            if trace and name != "train":
                backward = result["metrics"]["autodiff.backward.calls"]["value"]
                expect(backward == 0, f"{tag}: autodiff.backward.calls is 0")


def check_perturbations(workloads) -> None:
    scale = workloads.TINY
    for name, wl in workloads.WORKLOADS.items():
        state = wl.setup(0, scale, run.OUT_DIR)
        out = wl.loop(state, 0.1)
        if name == "train":
            history = out.results[0][1]
            history[-1].val_loss = float("nan")
        elif name == "screen":
            out.results[0][0][3].predicted_log10_sigma += 1e-9
        else:
            first_multi = next(i for i, r in enumerate(state["requests"]) if len(r[1]) > 1)
            out.results[0][first_multi] += 1e-6
        verdict = wl.check(state, out, scale)
        expect(verdict.failed >= 1,
               f"{name}: a perturbed output is counted as failed ({verdict.failed} failed, first: {verdict.notes[:1]})")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    run._import_molsets()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_runs(spec, workloads)
    check_perturbations(workloads)
    check_refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
