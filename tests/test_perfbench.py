import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The benchmark calls into molsets (MolecularGraph.n_nodes,
    # GraphTensors.from_graph, run_screening's results and more); its
    # tiny-scale self-test fails when a change breaks one of those calls.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
