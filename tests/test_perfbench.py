import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The benchmark calls into molsets (MolecularGraph.n_nodes,
    # run_screening's results and more) and traces named functions such as
    # the GraphTensors(graphs) constructor; its tiny-scale self-test fails
    # when a change breaks one of those calls.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


# Tracer targets that name no function of molsets: the batched forward
# replaced them. A change may shrink this set, never grow it.
UNRESOLVED_TRACER_TARGETS = {
    "molsets.model.embed_molecule",
    "molsets.gnn.GraphTensors.from_graph",
    "molsets.gnn.GraphTensors.weighted_adjacency",
    "molsets.gnn.GraphTensors.mean_adjacency",
    "molsets.gnn.GraphTensors.gcn_adjacency",
    "molsets.gnn.GraphTensors.dmpnn_tensors",
}


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # The benchmark's tracer times functions it finds by name, such as
    # aggregate_mixture, transform_head and AdamW.step; one it cannot find
    # reads as a per-layer figure of 0 instead of failing the run. So
    # deleting or renaming a traced function fails here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
        unresolved = {
            f"{module}.{path}"
            for _, module, path, _ in tracing.TARGETS
            if tracing._lookup(module, path) is None
        }
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
    assert unresolved <= UNRESOLVED_TRACER_TARGETS
