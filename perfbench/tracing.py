"""Span tracing of molsets from outside the package.

The tracer replaces public functions and methods of molsets with timing
wrappers, at every module that binds them (``forward`` is imported by name
into ``screening`` and ``training``, ``build_graph`` into ``data`` and
``model``), and puts the originals back on ``uninstall``. Each span
records its name, start, end, parent span and request id; spans stay in
memory and are written out at the end. A layer's self time is its span
time minus the time of its child spans. A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time

from workloads import CONVS

# (span name, module, attribute path, note). The note maps (args, result)
# to a value kept with the span.
TARGETS = (
    ("chem.build_graph", "molsets.chem", "build_graph", lambda a, r: r.n_nodes),
    ("gnn.embed", "molsets.model", "embed_molecule", lambda a, r: a[0].convs[0].kind),
    ("gnn.topology", "molsets.gnn", "GraphTensors.from_graph", None),
    ("gnn.topology", "molsets.gnn", "GraphTensors.weighted_adjacency", None),
    ("gnn.topology", "molsets.gnn", "GraphTensors.mean_adjacency", None),
    ("gnn.topology", "molsets.gnn", "GraphTensors.gcn_adjacency", None),
    ("gnn.topology", "molsets.gnn", "GraphTensors.dmpnn_tensors", None),
    ("model.forward", "molsets.model", "forward", None),  # note set by the tracer
    ("model.aggregate", "molsets.model", "aggregate_mixture", None),
    ("model.head", "molsets.model", "transform_head", None),
    ("model.checkpoint_save", "molsets.model", "save_checkpoint", None),
    ("model.checkpoint_load", "molsets.model", "load_checkpoint", None),
    ("autodiff.backward", "molsets.autodiff", "backward", lambda a, r: len(r)),
    ("training.optimizer_step", "molsets.training", "AdamW.step", None),
    ("training.train", "molsets.training", "train", None),
    ("screening.run_screening", "molsets.screening", "run_screening", lambda a, r: (len(r[0]), len(r[1]))),
    ("data.generate_synthetic", "molsets.data", "generate_synthetic", None),
    ("data.load_dataset", "molsets.data", "load_dataset", None),
)

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "chem.build_graph.calls": "calls/op",
    "chem.build_graph.p50_us": "us",
    "chem.build_graph.self_ms": "ms/op",
    "chem.atoms_parsed": "atoms/op",
    "gnn.embed.calls": "calls/op",
    "gnn.embed.self_ms": "ms/op",
    **{f"gnn.embed.p50_us.{conv}": "us" for conv in CONVS},
    "gnn.topology.calls": "calls/op",
    "gnn.topology.self_ms": "ms/op",
    "model.forward.calls": "calls/op",
    "model.forward.self_ms": "ms/op",
    "model.aggregate.calls": "calls/op",
    "model.aggregate.self_ms": "ms/op",
    "model.head.calls": "calls/op",
    "model.head.self_ms": "ms/op",
    "model.embed_reuse_ratio": "ratio",
    "model.checkpoint_save_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "autodiff.backward.calls": "calls/op",
    "autodiff.backward.self_ms": "ms/op",
    "autodiff.grads_per_backward": "count",
    "training.optimizer_step.calls": "calls/op",
    "training.optimizer_step.self_ms": "ms/op",
    "training.validation_ms": "ms/op",
    "training.train.self_ms": "ms/op",
    "screening.run_screening.self_ms": "ms/op",
    "screening.candidates": "count/op",
    "screening.skipped": "count/op",
    "data.generate_synthetic_ms": "ms",
    "data.load_dataset_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _lookup(module: str, path: str):
    """(owner object, attribute name, current value) or None if absent."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], vars(owner)[parts[-1]]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, self_s, note)
        self.request = "setup"
        self.absent: list[str] = []
        self._stack: list[list] = []  # [id, name, start, child_seconds]
        self._next_id = 0
        self._saved: list[tuple] = []
        self._tapes = 0
        self.origin = time.perf_counter()

    # -- span bookkeeping ---------------------------------------------------

    def begin(self, request) -> None:
        self.request = request

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self, note) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.request, duration - child, note))

    def _wrap(self, name, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                try:
                    value = note(args, result) if note is not None and result is not None else None
                except (AttributeError, IndexError, TypeError):
                    value = None
                tracer._close(value)

        return wrapper

    def _forward_note(self, args, result):
        """(molecule slots, whether this forward ran outside a tape inside train)."""
        mix = args[1]
        validation = self._tapes == 0 and any(s[1] == "training.train" for s in self._stack)
        return (len(mix.solvents) + 1, validation)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module, path, note in TARGETS:
            found = _lookup(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            if name == "model.forward":
                note = self._forward_note
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, note))
                self._patch(owner, attr, original, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, attr, original, self._wrap(name, original, note))
            else:
                wrapped = self._wrap(name, original, note)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "molsets" and vars(mod).get(attr) is original:
                        self._patch(mod, attr, original, wrapped)
        tape = _lookup("molsets.autodiff", "Tape")
        if tape is None:
            self.absent.append("molsets.autodiff.Tape")
        else:
            cls = tape[2]
            enter, leave = cls.__enter__, cls.__exit__
            tracer = self

            def counted_enter(tape_self):
                tracer._tapes += 1
                return enter(tape_self)

            def counted_exit(tape_self, *exc):
                tracer._tapes -= 1
                return leave(tape_self, *exc)

            self._patch(cls, "__enter__", enter, counted_enter)
            self._patch(cls, "__exit__", leave, counted_exit)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results --------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request, self_s, note in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self.origin,
                            "end": end - self.origin,
                            "parent": parent,
                            "request": request,
                            "self": self_s,
                            "note": note,
                        }
                    )
                )
                fh.write("\n")

    def metrics(self, n_ops: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: calls and self time per operation over the
        measured spans, single-call durations (data, checkpoint) over the
        set-up spans."""
        measured: dict[str, list[tuple]] = {}
        setup: dict[str, list[tuple]] = {}
        for span in self.spans:
            (setup if span[5] == "setup" else measured).setdefault(span[1], []).append(span)

        def per_op(name, field):
            spans = measured.get(name, [])
            if field == "calls":
                return len(spans) / n_ops
            return sum(s[6] for s in spans) * 1e3 / n_ops

        def p50_us(spans):
            return statistics.median(s[3] - s[2] for s in spans) * 1e6 if spans else 0.0

        def setup_ms(name):
            spans = setup.get(name, [])
            return statistics.median(s[3] - s[2] for s in spans) * 1e3 if spans else 0.0

        def note_sum(name, pick=lambda v: v):
            return sum(pick(s[7]) for s in measured.get(name, []) if s[7] is not None)

        out: dict[str, float] = {}
        for layer in ("chem.build_graph", "gnn.embed", "gnn.topology", "model.forward",
                      "model.aggregate", "model.head", "autodiff.backward",
                      "training.optimizer_step"):
            out[f"{layer}.calls"] = per_op(layer, "calls")
            out[f"{layer}.self_ms"] = per_op(layer, "self")
        out["chem.build_graph.p50_us"] = p50_us(measured.get("chem.build_graph", []))
        out["chem.atoms_parsed"] = note_sum("chem.build_graph") / n_ops
        embeds = measured.get("gnn.embed", [])
        for conv in CONVS:
            out[f"gnn.embed.p50_us.{conv}"] = p50_us([s for s in embeds if s[7] == conv])
        slots = note_sum("model.forward", lambda v: v[0])
        out["model.embed_reuse_ratio"] = slots / len(embeds) if embeds else 0.0
        out["model.checkpoint_save_ms"] = setup_ms("model.checkpoint_save")
        out["model.checkpoint_load_ms"] = setup_ms("model.checkpoint_load")
        backwards = measured.get("autodiff.backward", [])
        out["autodiff.grads_per_backward"] = note_sum("autodiff.backward") / len(backwards) if backwards else 0.0
        out["training.validation_ms"] = sum(
            s[3] - s[2] for s in measured.get("model.forward", []) if s[7] is not None and s[7][1]
        ) * 1e3 / n_ops
        out["training.train.self_ms"] = per_op("training.train", "self")
        out["screening.run_screening.self_ms"] = per_op("screening.run_screening", "self")
        out["screening.candidates"] = note_sum("screening.run_screening", lambda v: v[0]) / n_ops
        out["screening.skipped"] = note_sum("screening.run_screening", lambda v: v[1]) / n_ops
        out["data.generate_synthetic_ms"] = setup_ms("data.generate_synthetic")
        out["data.load_dataset_ms"] = setup_ms("data.load_dataset")
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in PER_LAYER}
