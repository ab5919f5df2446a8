"""Command-line interface.

Subcommands cover the full workflow: featurize a SMILES string, prepare
298 K targets from raw temperature series, split a dataset, generate a
synthetic corpus, train a model variant, evaluate a checkpoint, screen
candidate mixtures, run the order-permutation experiment, and export
mixture representations.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as data_mod
from .autodiff import DimensionError, TapeError
from .chem import FeaturizationError, SmilesParseError, build_graph
from .data import DataError
from .gnn import CONV_KINDS
from .model import (
    CHECKPOINT_TEMP_SUFFIX,
    VARIANTS,
    GraphStore,
    ModelConfig,
    build_model,
    forward_batch,
    load_checkpoint,
    mixture_from_record,
    mixture_representation,
    save_checkpoint,
)
from .screening import (
    ScreeningError,
    enumerate_binary_candidates,
    permute_mixture,
    run_screening,
    write_screening_csv,
)
from .training import (
    MetricError,
    TrainConfig,
    TrainingError,
    evaluate,
    train,
    write_history,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="molsets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="print node features and edges of a SMILES as JSON")
    p.add_argument("smiles")

    p = sub.add_parser("prepare", help="infer 298 K targets and write one row per mixture")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true", help="skip bad rows instead of aborting")

    p = sub.add_parser("split", help="shuffle and partition a dataset")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--ratios", default="3,1,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.add_argument("--out-test", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model variant")
    p.add_argument("--config", help="JSON with optional 'train' and 'model' sections")
    p.add_argument("--variant", choices=VARIANTS, default="molsets")
    p.add_argument("--conv", choices=CONV_KINDS, default="graphconv")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--val", required=True, help="validation CSV")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--history", help="training history CSV path")

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints a metrics JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("screen", help="rank equal-weight binary candidates")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--solvents", required=True, help="newline-delimited SMILES file")
    p.add_argument("--salts", required=True, help="newline-delimited SMILES file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("permute-test", help="prediction shift under solvent reordering")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-reprs", help="write mixture representations to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    return parser


def _load_records(path: str) -> list[data_mod.MixtureRecord]:
    records = data_mod.load_dataset(path)
    if not records:
        raise DataError(f"{path} has no mixtures")
    return records


def _load_examples(path: str, store: GraphStore):
    records = data_mod.attach_targets(_load_records(path))
    return [(mixture_from_record(r, store), r.target_298K) for r in records]


def _read_smiles_list(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [line.strip() for line in fh if line.strip()]


def _check_out_paths(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Refuse, before any work, an output path that cannot take a file or
    that names the same file as an input or an earlier output. Both map a
    flag to its path, None for a flag not given."""
    taken = {os.path.realpath(path): flag for flag, path in inputs.items() if path is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise DataError(f"cannot write {path}: directory {parent} does not exist")
        other = taken.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise DataError(f"cannot write {path}: {other} and {flag} name the same file")


def _cmd_featurize(args) -> int:
    graph = build_graph(args.smiles)
    doc = {
        "smiles": graph.source_smiles,
        "n_nodes": graph.n_nodes,
        "node_features": graph.node_features.tolist(),
        "edges": [
            [i, j, order]
            for (i, j), order in zip(graph.edge_index.tolist(), graph.edge_order.tolist())
        ],
        "log_mol_weight": graph.log_mol_weight,
    }
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_prepare(args) -> int:
    _check_out_paths({"--out": args.out}, {"--in": args.input})
    records = data_mod.load_dataset(args.input, strict=not args.lenient)
    data_mod.write_dataset(data_mod.prepared_records(records), args.out)
    print(f"wrote {len(records)} mixtures to {args.out}")
    return 0


def _cmd_split(args) -> int:
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
    except ValueError:
        raise UsageError(f"bad --ratios value {args.ratios!r}") from None
    if len(ratios) != 3:
        raise UsageError("--ratios needs three comma-separated numbers")
    outputs = (args.out_train, args.out_val, args.out_test)
    _check_out_paths(dict(zip(("--out-train", "--out-val", "--out-test"), outputs)), {"--in": args.input})
    records = data_mod.load_dataset(args.input)
    parts = data_mod.split_dataset(records, ratios, args.seed)
    for part, path in zip(parts, outputs):
        data_mod.write_dataset(part, path)
    print(f"split sizes: {[len(p) for p in parts]}")
    return 0


def _cmd_synth(args) -> int:
    _check_out_paths({"--out": args.out}, {})
    records = data_mod.generate_synthetic(args.n, seed=args.seed, noise_scale=args.noise)
    data_mod.write_dataset(records, args.out)
    print(f"wrote {len(records)} synthetic mixtures to {args.out}")
    return 0


def _cmd_train(args) -> int:
    temp = f"{args.out}{CHECKPOINT_TEMP_SUFFIX}"  # save_checkpoint writes it, then renames it
    _check_out_paths(
        {"--out": args.out, "--out's temp file": temp, "--history": args.history},
        {"--data": args.data, "--val": args.val, "--config": args.config},
    )
    sections = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            sections = json.load(fh)
        if not isinstance(sections, dict):
            raise UsageError(
                f"bad config file {args.config}: expected a JSON object with optional "
                f"'train' and 'model' sections, got {type(sections).__name__}"
            )
        unknown = sorted(set(sections) - {"train", "model"})
        if unknown:
            raise UsageError(
                f"bad config file {args.config}: unknown sections {unknown}, "
                f"expected only 'train' and 'model'"
            )
    try:
        config = ModelConfig.for_conv(args.conv, variant=args.variant, **sections.get("model", {}))
        train_config = TrainConfig(**sections.get("train", {}))
    except TypeError as exc:
        raise UsageError(f"bad config file {args.config}: {exc}") from exc

    store = GraphStore()
    train_examples = _load_examples(args.data, store)
    val_examples = _load_examples(args.val, store)

    params = build_model(config)
    best, history = train(params, train_examples, val_examples, train_config)
    save_checkpoint(best, args.out)
    if args.history:
        write_history(history, args.history)
    best_val = min(h.val_loss for h in history)
    print(
        json.dumps(
            {"epochs_run": len(history), "best_val_loss": best_val, "checkpoint": args.out}
        )
    )
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    examples = _load_examples(args.data, GraphStore())
    report = evaluate(params, examples)
    print(json.dumps(dataclasses.asdict(report), indent=1))
    return 0


def _cmd_screen(args) -> int:
    _check_out_paths(
        {"--out": args.out},
        {"--checkpoint": args.checkpoint, "--solvents": args.solvents, "--salts": args.salts},
    )
    params = load_checkpoint(args.checkpoint)
    dropped = 0

    def usable(smiles_list: list[str]) -> list[str]:
        nonlocal dropped
        good = []
        for smiles in smiles_list:
            try:
                build_graph(smiles)
                good.append(smiles)
            except (SmilesParseError, FeaturizationError) as exc:
                dropped += 1
                print(f"skipped {smiles!r}: {exc}", file=sys.stderr)  # before enumeration, which may fail
        return good

    solvents = usable(_read_smiles_list(args.solvents))
    salts = usable(_read_smiles_list(args.salts))
    # Every SMILES left parses, so the screen skips no candidate.
    results, _ = run_screening(params, enumerate_binary_candidates(solvents, salts))
    write_screening_csv(results, args.out)
    print(f"ranked {len(results)} candidates into {args.out}")
    return 2 if dropped else 0


def _cmd_permute_test(args) -> int:
    params = load_checkpoint(args.checkpoint)
    records = data_mod.load_dataset(args.data)
    store = GraphStore()
    pairs = [
        (record, permute_mixture(record, seed=args.seed + i))
        for i, record in enumerate(records)
        if len(record.solvent_smiles) >= 2
    ]
    diffs = []
    if pairs:
        before = forward_batch(params, [mixture_from_record(a, store) for a, _ in pairs]).data
        after = forward_batch(params, [mixture_from_record(b, store) for _, b in pairs]).data
        diffs = np.abs(after - before).tolist()
    doc = {
        "variant": params.config.variant,
        "n_permuted": len(diffs),
        "max_abs_diff": max(diffs) if diffs else None,
        "mean_abs_diff": float(np.mean(diffs)) if diffs else None,
    }
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_export_reprs(args) -> int:
    _check_out_paths({"--out": args.out}, {"--checkpoint": args.checkpoint, "--data": args.data})
    params = load_checkpoint(args.checkpoint)
    if params.config.variant == "concat":
        raise DataError("the concat variant has no aggregated mixture representation")
    records = _load_records(args.data)
    store = GraphStore()
    reprs = mixture_representation(params, [mixture_from_record(r, store) for r in records])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mixture_id"] + [f"r_{i}" for i in range(params.config.representation_dim)])
        for record, vec in zip(records, reprs.data.tolist()):
            writer.writerow([record.mixture_id, *vec])
    print(f"wrote {len(records)} representations to {args.out}")
    return 0


_COMMANDS = {
    "featurize": _cmd_featurize,
    "prepare": _cmd_prepare,
    "split": _cmd_split,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "screen": _cmd_screen,
    "permute-test": _cmd_permute_test,
    "export-reprs": _cmd_export_reprs,
}


def cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingError, ScreeningError, MetricError, TapeError, DimensionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (
        SmilesParseError,
        FeaturizationError,
        DataError,
        json.JSONDecodeError,
        OSError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
