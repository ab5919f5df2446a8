"""The three benchmark workloads: seeded inputs, set-up, the timed
operation and the output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. The program only ever sees the SMILES
strings and records generated here from the seed. Every call into molsets
goes through a module attribute looked up at call time (``model.forward``,
not a name imported at load time), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from molsets import autodiff, chem, data, model, screening, training

CONVS = ("graphconv", "sageconv", "gcnconv", "gatconv", "dmpnn")


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; FULL is what the benchmark measures, TINY is
    for the self-test."""

    train_records: int = 500
    train_val: int = 100
    train_epochs: int = 3
    screen_solvents: int = 28
    screen_salts: int = 30
    screen_checked: int = 256
    cold_round: int = 1200
    cold_checked_every: int = 8


FULL = Scale()
TINY = Scale(
    train_records=50,
    train_val=10,
    train_epochs=1,
    screen_solvents=5,
    screen_salts=2,
    screen_checked=64,
    cold_round=10,
    cold_checked_every=1,
)


# --------------------------------------------------------------------------
# Seeded SMILES generators. Every template parses under the molsets SMILES
# subset without a valence warning (hypervalent S and P are bracket atoms).


def _solvent(rng: np.random.Generator, large: bool) -> str:
    """One solvent SMILES: small ethers, carbonates, esters, nitriles,
    aromatics and sulfones, or (large) a chain or a polymer repeat unit of
    up to about 60 heavy atoms with Cu/Au connection-site placeholders."""
    if large:
        k = int(rng.integers(6, 20))
        kind = int(rng.integers(4))
        if kind == 0:
            return "[Cu]" + "OCC" * k + "[Au]"  # PEO repeat unit
        if kind == 1:
            return "[Cu]OC(=O)O" + "C" * k + "[Au]"  # aliphatic polycarbonate
        if kind == 2:
            return "CO" + "CCO" * k + "C"  # long glyme
        return "C" * (2 * k + 8)  # alkane chain
    a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    kind = int(rng.integers(10))
    if kind == 0:
        return "CO" + "CCO" * a + "C"
    if kind == 1:
        return "C" * a + "OC(=O)O" + "C" * b
    if kind == 2:
        return "O=C1OC" + ("C(" + "C" * a + ")" if b > 2 else "C") + "O1"
    if kind == 3:
        return "C" * a + "C(=O)O" + "C" * b
    if kind == 4:
        return "N#C" + "C" * a
    if kind == 5:
        return "FC(F)(F)C" + "OCC" * a + "OC"
    if kind == 6:
        return "C" * a + "c1ccccc1"
    if kind == 7:
        return "C" * a + "[S](=O)(=O)" + "C" * b
    if kind == 8:
        return ("C1CCOC1", "CC1CCCO1", "C1COCO1", "C1COCCO1")[a - 1]
    return "C" * (a + b) + "O"


_ANIONS = (
    "F[P-](F)(F)(F)(F)F",
    "F[B-](F)(F)F",
    "[Cl-]",
    "[Br-]",
    "[I-]",
    "FC(F)(F)[S](=O)(=O)[N-][S](=O)(=O)C(F)(F)F",
    "F[S](=O)(=O)[N-][S](=O)(=O)F",
    "FC(F)(F)[S](=O)(=O)[O-]",
    "N#C[N-]C#N",
    "[O-][N+](=O)[O-]",
    "O=C1O[B-]2(OC1=O)OC(=O)C(=O)O2",
) + tuple("C" * k + "[S](=O)(=O)[O-]" for k in range(1, 8)) + tuple(
    "C" * k + "C(=O)[O-]" for k in range(1, 8)
)
_CATIONS = ("[Li+]", "[Na+]", "[K+]")


def seeded_salts(rng: np.random.Generator, n: int) -> list[str]:
    pool = [f"{anion}.{cation}" for anion in _ANIONS for cation in _CATIONS]
    return [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]


def seeded_solvents(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct solvents, about one in six of them large."""
    out: list[str] = []
    while len(out) < n:
        smiles = _solvent(rng, large=rng.random() < 0.15)
        if smiles not in out:
            out.append(smiles)
    return out


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def scratch_dir(out_dir: str) -> str:
    path = os.path.join(out_dir, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class Outcome:
    """What a measured loop produced: per-operation results plus the
    perf_counter spans of each operation and of each latency sample."""

    results: list = field(default_factory=list)
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    latency_spans: list[tuple[float, float]] = field(default_factory=list)
    mixtures: list[int] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)

    def measure(self, seconds=lambda a, b: b - a) -> None:
        """Fill op_seconds and latencies_ms from the spans; ``seconds`` maps
        a span to its length (wall clock unless told otherwise)."""
        self.op_seconds = [seconds(a, b) for a, b in self.op_spans]
        self.latencies_ms = [seconds(a, b) * 1e3 for a, b in self.latency_spans]


@dataclass
class Verdict:
    attempted: int
    failed: int
    hashes: dict
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class StepClock:
    """Two timestamps per training step at public API boundaries: entering
    a Tape starts a step, AdamW.step returning ends it. It costs two clock
    reads per step, so the untraced run uses it for step latency."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self._start = None
        self._saved = []

    def install(self) -> None:
        tape_cls = getattr(autodiff, "Tape", None)
        adam_cls = getattr(training, "AdamW", None)
        if tape_cls is None or adam_cls is None:
            return  # the caller falls back to the mean step time
        tape_enter, adam_step = tape_cls.__enter__, adam_cls.step
        clock = self

        def enter(tape_self):
            clock._start = time.perf_counter()
            return tape_enter(tape_self)

        def step(opt_self, grads):
            out = adam_step(opt_self, grads)
            if clock._start is not None:
                clock.spans.append((clock._start, time.perf_counter()))
                clock._start = None
            return out

        self._saved = [(tape_cls, "__enter__", tape_enter), (adam_cls, "step", adam_step)]
        tape_cls.__enter__ = enter
        adam_cls.step = step

    def uninstall(self) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []


# --------------------------------------------------------------------------
# train


class Train:
    """Trains the molsets/graphconv model on 400 synthetic mixtures for a
    fixed number of epochs; each operation is one train() call from the
    same initial parameters, so every operation does identical work."""

    name = "train"
    min_ops = 2

    def setup(self, seed: int, scale: Scale, out_dir: str):
        records = data.generate_synthetic(scale.train_records, seed=seed, noise_scale=0.05)
        path = os.path.join(scratch_dir(out_dir), f"train-{seed}-{os.getpid()}.csv")
        data.write_dataset(records, path)
        loaded = data.attach_targets(data.load_dataset(path))
        os.remove(path)
        store = model.GraphStore()
        examples = [(model.mixture_from_record(r, store), r.target_298K) for r in loaded]
        n_train = scale.train_records - scale.train_val
        config = model.ModelConfig.for_conv("graphconv", seed=seed)
        epochs = scale.train_epochs
        train_config = training.TrainConfig(
            seed=seed, max_epochs=epochs, early_stop_patience=epochs + 1, batch_size=32
        )
        return {
            "train": examples[:n_train],
            "val": examples[n_train:],
            "config": config,
            "train_config": train_config,
        }

    def loop(self, state, seconds: float, mark=None) -> Outcome:
        out = Outcome()
        clock = StepClock()
        clock.install()
        try:
            deadline = time.perf_counter() + seconds
            while len(out.results) < self.min_ops or time.perf_counter() < deadline:
                params = model.build_model(state["config"])
                if mark:
                    mark()
                t0 = time.perf_counter()
                best, history = training.train(
                    params, state["train"], state["val"], state["train_config"]
                )
                out.op_spans.append((t0, time.perf_counter()))
                out.mixtures.append(len(state["train"]) * state["train_config"].max_epochs)
                out.results.append((best, history))
        finally:
            clock.uninstall()
        out.latency_spans = clock.spans
        if not out.latency_spans:  # no Tape/AdamW to hook: split each call evenly
            cfg = state["train_config"]
            steps = math.ceil(len(state["train"]) / cfg.batch_size) * cfg.max_epochs
            out.latency_spans = [
                (a + k * (b - a) / steps, a + (k + 1) * (b - a) / steps)
                for a, b in out.op_spans
                for k in range(steps)
            ]
        out.measure()
        return out

    def check(self, state, out: Outcome, scale: Scale) -> Verdict:
        failed = 0
        notes = []
        hashes = [digest((e.epoch, e.train_loss, e.val_loss, e.lr) for e in h) for _, h in out.results]
        for i, (_, history) in enumerate(out.results):
            losses = [v for e in history for v in (e.train_loss, e.val_loss)]
            bad = []
            if not all(math.isfinite(v) for v in losses):
                bad.append("non-finite loss")
            if len(history) != state["train_config"].max_epochs:
                bad.append(f"{len(history)} epochs run")
            if hashes[i] != hashes[0]:
                bad.append("history differs from the first training on the same inputs")
            if bad:
                failed += 1
                notes.append(f"training {i}: " + "; ".join(bad))
        best_val = min(e.val_loss for e in out.results[0][1])
        return Verdict(
            attempted=len(out.results),
            failed=failed,
            hashes={"history": hashes[0]},
            notes=notes,
            extra={"train_val_mse": best_val},
        )


# --------------------------------------------------------------------------
# screen


class Screen:
    """Screens every equal-weight solvent pair of 28 seeded solvents against
    30 seeded salts (11340 candidates) with a checkpoint-restored model."""

    name = "screen"
    min_ops = 2

    def setup(self, seed: int, scale: Scale, out_dir: str):
        rng = np.random.default_rng(seed)
        solvents = seeded_solvents(rng, scale.screen_solvents)
        salts = seeded_salts(rng, scale.screen_salts)
        params = model.build_model(model.ModelConfig.for_conv("graphconv", seed=seed))
        path = os.path.join(scratch_dir(out_dir), f"screen-{seed}-{os.getpid()}.json")
        model.save_checkpoint(params, path)
        params = model.load_checkpoint(path)
        os.remove(path)
        candidates = screening.enumerate_binary_candidates(solvents, salts)
        return {"params": params, "candidates": candidates, "seed": seed}

    def loop(self, state, seconds: float, mark=None) -> Outcome:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        while len(out.results) < self.min_ops or time.perf_counter() < deadline:
            if mark:
                mark()
            t0 = time.perf_counter()
            results, skipped = screening.run_screening(state["params"], state["candidates"])
            out.op_spans.append((t0, time.perf_counter()))
            out.mixtures.append(len(state["candidates"]))
            out.results.append((results, skipped))
        out.latency_spans = out.op_spans
        out.measure()
        return out

    def check(self, state, out: Outcome, scale: Scale) -> Verdict:
        expected = len(state["candidates"])
        failed = 0
        notes = []
        hashes = []
        for i, (results, skipped) in enumerate(out.results):
            ranking = [(r.candidate.sort_key(), r.predicted_log10_sigma) for r in results]
            hashes.append(digest(ranking))
            bad = []
            if len(results) != expected or skipped:
                bad.append(f"{len(results)} results, {len(skipped)} skipped of {expected}")
            if not all(math.isfinite(v) for _, v in ranking):
                bad.append("non-finite prediction")
            if hashes[i] != hashes[0]:
                bad.append("ranking differs from the first screen of the same candidates")
            if bad:
                failed += 1
                notes.append(f"screen {i}: " + "; ".join(bad))

        # Re-predict a seeded sample through the uncached single-mixture
        # forward, in both solvent orders.
        results = out.results[0][0]
        rng = np.random.default_rng(state["seed"] + 1)
        picks = rng.choice(len(results), size=min(scale.screen_checked, len(results)), replace=False)
        store = model.GraphStore()
        params = state["params"]
        worst = 0.0
        for idx in picks:
            res = results[int(idx)]
            c = res.candidate
            salt = store.get(c.salt)
            a, b = store.get(c.solvent_a), store.get(c.solvent_b)
            values = [
                float(model.forward(params, model.MixtureInput(pair, salt, c.molality)).data[0])
                for pair in ([(a, c.weights[0]), (b, c.weights[1])], [(b, c.weights[1]), (a, c.weights[0])])
            ]
            dev = max(abs(v - res.predicted_log10_sigma) for v in values)
            worst = max(worst, dev)
            if not dev <= 1e-12:
                failed += 1
                notes.append(f"candidate {c.sort_key()}: single-mixture forward deviates by {dev:.3g}")
        return Verdict(
            attempted=len(out.results) + len(picks),
            failed=failed,
            hashes={"ranking": hashes[0]},
            notes=notes,
            extra={"checked_candidates": len(picks), "max_recheck_deviation": worst},
        )


# --------------------------------------------------------------------------
# predict_cold


class PredictCold:
    """Cold single-mixture predictions: every request parses its SMILES with
    build_graph (no GraphStore, no embedding cache) and predicts with one of
    five checkpoint-restored models, rotating through the conv kinds. The
    requests of one round are generated from the seed; rounds repeat them,
    but nothing is shared between requests."""

    name = "predict_cold"
    min_ops = 1

    def setup(self, seed: int, scale: Scale, out_dir: str):
        rng = np.random.default_rng(seed)
        requests = []
        for i in range(scale.cold_round):
            size = int(rng.integers(1, 4))
            solvents = [_solvent(rng, large=rng.random() < 0.15) for _ in range(size)]
            raw = rng.uniform(0.2, 1.0, size=size)
            weights = [float(w) for w in raw / raw.sum()]
            salt = seeded_salts(rng, 1)[0]
            requests.append((CONVS[i % len(CONVS)], solvents, weights, salt, float(rng.uniform(0.5, 2.0))))
        models = {}
        directory = scratch_dir(out_dir)
        for conv in CONVS:
            path = os.path.join(directory, f"cold-{conv}-{seed}-{os.getpid()}.json")
            model.save_checkpoint(model.build_model(model.ModelConfig.for_conv(conv, seed=seed)), path)
            models[conv] = model.load_checkpoint(path)
            os.remove(path)
        return {"requests": requests, "models": models}

    @staticmethod
    def predict(models, request, order=None) -> float:
        conv, solvents, weights, salt, molality = request
        idx = order if order is not None else range(len(solvents))
        mix = model.MixtureInput(
            solvents=[(chem.build_graph(solvents[j]), weights[j]) for j in idx],
            salt=chem.build_graph(salt),
            molality=molality,
        )
        return model.predict(models[conv], mix)

    def loop(self, state, seconds: float, mark=None) -> Outcome:
        out = Outcome()
        requests, models = state["requests"], state["models"]
        deadline = time.perf_counter() + seconds
        while not out.results or time.perf_counter() < deadline:
            values = []
            round_start = time.perf_counter()
            for request in requests:
                if mark:
                    mark()
                t0 = time.perf_counter()
                values.append(self.predict(models, request))
                out.latency_spans.append((t0, time.perf_counter()))
            out.op_spans.append((round_start, time.perf_counter()))
            out.mixtures.append(len(requests))
            out.results.append(values)
        out.measure()
        return out

    def check(self, state, out: Outcome, scale: Scale) -> Verdict:
        requests, models = state["requests"], state["models"]
        failed = 0
        notes = []
        for r, values in enumerate(out.results):
            for i, v in enumerate(values):
                if not math.isfinite(v) or v != out.results[0][i]:
                    failed += 1
                    notes.append(f"round {r} request {i}: prediction {v!r} (first round {out.results[0][i]!r})")
        # Cold re-prediction of a sample of multi-solvent requests with the
        # solvents in reverse order.
        checked = 0
        multi = [i for i, req in enumerate(requests) if len(req[1]) > 1]
        for i in multi[:: scale.cold_checked_every]:
            checked += 1
            n = len(requests[i][1])
            shifted = self.predict(models, requests[i], order=range(n - 1, -1, -1))
            dev = abs(shifted - out.results[0][i])
            if not dev <= 1e-9:
                failed += 1
                notes.append(f"request {i}: solvent permutation shifts the prediction by {dev:.3g}")
        per_conv = {}
        n = len(requests)
        for k, latency in enumerate(out.latencies_ms):
            per_conv.setdefault(requests[k % n][0], []).append(latency)
        return Verdict(
            attempted=sum(len(v) for v in out.results) + checked,
            failed=failed,
            hashes={"predictions": digest(out.results[0])},
            notes=notes,
            extra={"per_conv_latencies_ms": per_conv, "permutation_checks": checked},
        )


WORKLOADS = {w.name: w for w in (Train(), Screen(), PredictCold())}
