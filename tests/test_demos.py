"""The quick demos run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Every demo runs here; the two that train a model (06, 07) take a few
# seconds each with batched training.
QUICK_DEMOS = [
    "01_smiles_to_graphs.py",
    "02_autodiff_basics.py",
    "03_graph_convolutions.py",
    "04_mixture_model_invariance.py",
    "05_arrhenius_pipeline.py",
    "06_train_and_evaluate.py",
    "07_virtual_screening.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
