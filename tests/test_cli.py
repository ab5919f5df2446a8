import csv
import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from molsets.cli import cli
from molsets.data import CSV_COLUMNS, generate_synthetic, load_dataset, write_dataset
from molsets.model import ModelConfig, build_model, named_parameters, save_checkpoint
from molsets.screening import run_screening

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def synthetic_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(generate_synthetic(12, seed=31), str(path))
    return str(path)


@pytest.fixture()
def micro_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "train": {"max_epochs": 3, "batch_size": 4, "seed": 0},
                "model": {
                    "num_layers": 2,
                    "hidden_dim": 4,
                    "representation_dim": 6,
                    "attention_dim": 3,
                    "rho_hidden_dims": [4],
                    "seed": 0,
                },
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def _train_checkpoint(tmp_path, synthetic_csv, micro_config, variant="molsets"):
    ckpt = tmp_path / f"model-{variant}.json"
    code = cli(
        [
            "train",
            "--config", micro_config,
            "--variant", variant,
            "--conv", "graphconv",
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(ckpt),
            "--history", str(tmp_path / "history.csv"),
        ]
    )
    assert code == 0
    return str(ckpt)


def test_featurize_thf(capsys):
    assert cli(["featurize", "C1CCOC1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_nodes"] == 5
    assert len(doc["node_features"]) == 5
    assert len(doc["node_features"][0]) == 13
    assert len(doc["edges"]) == 5


@pytest.mark.parametrize(
    "smiles, golden",
    [
        ("F[P-](F)(F)(F)(F)F.[Li+]", "featurize_lipf6.json"),
        ("CC(CC1)1", "featurize_ring_closure_after_branch.json"),
        ("C12CC12", "featurize_duplicate_ring_closure.json"),
    ],
)
def test_featurize_output_is_pinned(smiles, golden, capsys):
    # Byte for byte: a two-component salt, a ring closure after a branch,
    # and a ring closure that repeats a bond.
    assert cli(["featurize", smiles]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    for edge in json.loads(out)["edges"]:
        assert [type(v) for v in edge] == [int, int, float]


def test_featurize_bad_smiles_is_data_error(capsys):
    assert cli(["featurize", "C(("]) == 2
    assert "data error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert cli(["--nope"]) == 1
    assert cli([]) == 1
    assert cli(["train", "--data", "x.csv"]) == 1  # missing required flags
    assert "error" in capsys.readouterr().err
    split = ["split", "--in", "x.csv", "--out-train", "a.csv", "--out-val", "b.csv", "--out-test", "c.csv"]
    assert cli([*split, "--ratios", "0.8,x,0.1"]) == 1
    assert "bad --ratios value '0.8,x,0.1'" in capsys.readouterr().err
    assert cli([*split, "--ratios", "0.5,0.5"]) == 1
    assert "--ratios needs three comma-separated numbers" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    assert cli(["prepare", "--in", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.csv")]) == 2


def test_synth_prepare_split_round(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    assert cli(["synth", "--n", "10", "--seed", "3", "--out", str(data)]) == 0
    assert len(load_dataset(str(data))) == 10

    prepared = tmp_path / "prepared.csv"
    assert cli(["prepare", "--in", str(data), "--out", str(prepared)]) == 0
    records = load_dataset(str(prepared))
    assert all(len(r.points) == 1 and r.points[0].temperature_K == 298.0 for r in records)

    assert (
        cli(
            [
                "split",
                "--in", str(data),
                "--seed", "1",
                "--out-train", str(tmp_path / "train.csv"),
                "--out-val", str(tmp_path / "val.csv"),
                "--out-test", str(tmp_path / "test.csv"),
            ]
        )
        == 0
    )
    sizes = [len(load_dataset(str(tmp_path / f"{part}.csv"))) for part in ("train", "val", "test")]
    assert sizes == [6, 2, 2]


@pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
def test_synth_rejects_bad_noise_as_data_error(tmp_path, capsys, noise):
    out = tmp_path / "synth.csv"
    assert cli(["synth", "--n", "4", "--noise", noise, "--out", str(out)]) == 2
    assert "noise_scale" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_lenient_skips_bad_rows(tmp_path, capsys):
    header = (
        "mixture_id,solvent_smiles_1,solvent_smiles_2,solvent_smiles_3,solvent_smiles_4,"
        "weight_frac_1,weight_frac_2,weight_frac_3,weight_frac_4,"
        "mol_weight_1,mol_weight_2,mol_weight_3,mol_weight_4,"
        "salt_smiles,molality_mol_per_kg,temperature_K,log10_conductivity_S_per_cm"
    )
    rows = [
        "m1,C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,298.0,-2.0",
        "m2,C1CCOC1,,,,0.5,,,,,,,,[Li+].[Cl-],1.0,298.0,-2.0",  # weights do not sum to 1
    ]
    src = tmp_path / "raw.csv"
    src.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    out = tmp_path / "prepared.csv"

    assert cli(["prepare", "--in", str(src), "--out", str(out)]) == 2  # strict aborts
    assert cli(["prepare", "--in", str(src), "--out", str(out), "--lenient"]) == 0
    assert [r.mixture_id for r in load_dataset(str(out))] == ["m1"]


def test_weights_outside_unit_interval_are_data_error(tmp_path, capsys):
    rows = [f"m{i},C1CCOC1,,,,1.0,,,,,,,,[Li+].[Cl-],1.0,298.0,-2.0" for i in range(4)]
    rows.append("bad,C1CCOC1,COCOC,,,1.5,-0.5,,,,,,,[Li+].[Cl-],1.0,298.0,-2.0")
    src = tmp_path / "raw.csv"
    src.write_text("\n".join([",".join(CSV_COLUMNS)] + rows) + "\n", encoding="utf-8")
    outs = [
        "--out-train", str(tmp_path / "train.csv"),
        "--out-val", str(tmp_path / "val.csv"),
        "--out-test", str(tmp_path / "test.csv"),
    ]
    capsys.readouterr()
    assert cli(["split", "--in", str(src), *outs]) == 2
    assert "line 6" in capsys.readouterr().err
    prepared = tmp_path / "prepared.csv"
    assert cli(["prepare", "--in", str(src), "--out", str(prepared)]) == 2
    assert "line 6" in capsys.readouterr().err
    assert cli(["prepare", "--in", str(src), "--out", str(prepared), "--lenient"]) == 0
    assert [r.mixture_id for r in load_dataset(str(prepared))] == ["m0", "m1", "m2", "m3"]


def test_train_and_eval(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    capsys.readouterr()
    assert cli(["eval", "--checkpoint", ckpt, "--data", synthetic_csv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"pearson_rp", "spearman_rs", "mse", "n"}
    assert report["n"] == 12
    assert (tmp_path / "history.csv").read_text().startswith("epoch,train_loss,val_loss,lr")


def test_screen_command(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    solvents = tmp_path / "solvents.txt"
    salts = tmp_path / "salts.txt"
    solvents.write_text("C1CCOC1\nCOCOC\nCCO\n", encoding="utf-8")
    salts.write_text("[Li+].[Cl-]\nF[B-](F)(F)F.[Li+]\n", encoding="utf-8")
    ranked = tmp_path / "ranked.csv"
    assert (
        cli(["screen", "--checkpoint", ckpt, "--solvents", str(solvents), "--salts", str(salts), "--out", str(ranked)])
        == 0
    )
    lines = ranked.read_text().strip().splitlines()
    assert lines[0] == "solvent_1,solvent_2,weight_1,weight_2,salt,molality,predicted_log10_conductivity"
    assert len(lines) == 1 + 6


def test_screen_reports_partial_success(tmp_path, synthetic_csv, micro_config, capsys, monkeypatch):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    capsys.readouterr()
    solvents = tmp_path / "solvents.txt"
    salts = tmp_path / "salts.txt"
    # A bad SMILES listed twice is reported twice and is no duplicate.
    solvents.write_text("C1CCOC1\nbad(smiles\nCOCOC\nbad(smiles\n", encoding="utf-8")
    salts.write_text("Xx\n[Li+].[Cl-]\n", encoding="utf-8")
    ranked = tmp_path / "ranked.csv"
    skip_lists = []

    def screen(params, candidates):
        results, skipped = run_screening(params, candidates)
        skip_lists.append(skipped)
        return results, skipped

    # The CLI hands the screen only SMILES that parse, so the screen
    # skips nothing and the lines below are the only skip report.
    monkeypatch.setattr("molsets.cli.run_screening", screen)
    code = cli(
        ["screen", "--checkpoint", ckpt, "--solvents", str(solvents), "--salts", str(salts), "--out", str(ranked)]
    )
    assert code == 2  # exit code distinguishes partial success
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "skipped 'bad(smiles': unsupported element 'a' (at offset 1 in 'bad(smiles')",
        "skipped 'bad(smiles': unsupported element 'a' (at offset 1 in 'bad(smiles')",
        "skipped 'Xx': unsupported element 'X' (at offset 0 in 'Xx')",
    ]
    assert out == f"ranked 1 candidates into {ranked}\n"
    assert skip_lists == [[]]
    assert len(ranked.read_text().strip().splitlines()) == 1 + 1


def test_permute_test_command(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    capsys.readouterr()
    assert cli(["permute-test", "--checkpoint", ckpt, "--data", synthetic_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "molsets"
    assert doc["n_permuted"] >= 1
    assert doc["max_abs_diff"] <= 1e-9


def test_export_reprs_command(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    out = tmp_path / "reprs.csv"
    assert cli(["export-reprs", "--checkpoint", ckpt, "--data", synthetic_csv, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("mixture_id,r_0,")
    assert len(lines) == 1 + 12
    mixture_id, *values = lines[1].split(",")
    assert len([float(v) for v in values]) == 6  # representation_dim plain numbers


def test_export_reprs_on_concat_checkpoint_is_data_error(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config, variant="concat")
    out = tmp_path / "reprs.csv"
    assert cli(["export-reprs", "--checkpoint", ckpt, "--data", synthetic_csv, "--out", str(out)]) == 2
    assert "concat" in capsys.readouterr().err


@pytest.fixture()
def empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_dataset([], str(path))
    return str(path)


def test_export_reprs_on_empty_csv_is_data_error(tmp_path, synthetic_csv, micro_config, empty_csv, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    out = tmp_path / "reprs.csv"
    assert cli(["export-reprs", "--checkpoint", ckpt, "--data", empty_csv, "--out", str(out)]) == 2
    assert "data error" in capsys.readouterr().err


def test_eval_on_empty_csv_is_data_error(tmp_path, synthetic_csv, micro_config, empty_csv, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    assert cli(["eval", "--checkpoint", ckpt, "--data", empty_csv]) == 2
    assert "data error" in capsys.readouterr().err


def test_eval_on_one_mixture_is_data_error(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    one = tmp_path / "one.csv"
    write_dataset(load_dataset(synthetic_csv)[:1], str(one))
    capsys.readouterr()
    assert cli(["eval", "--checkpoint", ckpt, "--data", str(one)]) == 2
    assert "data error: evaluate needs at least two examples, got 1" in capsys.readouterr().err


def test_eval_on_non_finite_csv_cell_is_data_error(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    with open(synthetic_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for column, value in (("log10_conductivity_S_per_cm", "inf"), ("mol_weight_1", "nan")):
        bad = tmp_path / f"bad-{column}.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows([{**rows[0], column: value}] + rows[1:])
        assert cli(["eval", "--checkpoint", ckpt, "--data", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err


def test_bad_config_key_is_usage_error(tmp_path, synthetic_csv, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": {"learning_rate": 0.1}}), encoding="utf-8")
    code = cli(
        [
            "train",
            "--config", str(config),
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    assert "bad config" in capsys.readouterr().err


def test_config_that_is_not_an_object_is_usage_error(tmp_path, synthetic_csv, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([{"train": {"max_epochs": 1}}]), encoding="utf-8")
    code = cli(
        [
            "train",
            "--config", str(config),
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 1
    assert "bad config" in capsys.readouterr().err


def test_config_with_unknown_section_is_usage_error(tmp_path, synthetic_csv, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"trian": {"max_epochs": 1}, "model": {}}), encoding="utf-8")
    out = tmp_path / "m.json"
    code = cli(
        [
            "train",
            "--config", str(config),
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad config" in err and "unknown sections ['trian']" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "train_section",
    [
        {"max_epochs": 2.5},
        {"batch_size": 2.5},
        {"lr0": float("nan")},
        {"betas": [0.9]},
        {"scheduler_patience": -1},
        {"seed": "x"},
        {"seed": 1.5},
    ],
    ids=["float-epochs", "float-batch", "nan-lr", "one-beta", "negative-patience", "text-seed",
         "float-seed"],
)
def test_bad_train_config_value_is_data_error(tmp_path, synthetic_csv, train_section, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": {"max_epochs": 2, **train_section}}), encoding="utf-8")
    out = tmp_path / "m.json"
    code = cli(
        [
            "train",
            "--config", str(config),
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(out),
        ]
    )
    assert code == 2
    assert f"data error: {next(iter(train_section))}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_model_seed_is_data_error(tmp_path, synthetic_csv, capsys):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"model": {"seed": "x"}}), encoding="utf-8")
    out = tmp_path / "m.json"
    code = cli(
        [
            "train",
            "--config", str(path),
            "--data", synthetic_csv,
            "--val", synthetic_csv,
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "data error: seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_validation_loss_is_numeric_failure(tmp_path, synthetic_csv, micro_config, capsys):
    with open(synthetic_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    val = tmp_path / "huge-molality.csv"
    with open(val, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows([{**row, "molality_mol_per_kg": "1e300"} for row in rows])
    out = tmp_path / "m.json"
    with np.errstate(over="ignore"):
        code = cli(
            [
                "train",
                "--config", micro_config,
                "--data", synthetic_csv,
                "--val", str(val),
                "--out", str(out),
            ]
        )
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric failure: non-finite validation loss inf at epoch 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_malformed_checkpoint_is_data_error(tmp_path, synthetic_csv, capsys):
    ckpt = tmp_path / "broken.json"
    ckpt.write_text(json.dumps({"not_a_checkpoint": True}), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--checkpoint", "{dir}", "--data", "{csv}"],
        ["eval", "--checkpoint", "{ckpt}", "--data", "{dir}"],
        ["screen", "--checkpoint", "{ckpt}", "--solvents", "{dir}", "--salts", "{salts}", "--out", "{out}"],
    ],
    ids=["eval-checkpoint", "eval-data", "screen-solvents"],
)
def test_directory_path_is_one_line_data_error(tmp_path, synthetic_csv, capsys, argv):
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    salts = tmp_path / "salts.txt"
    salts.write_text("F[P-](F)(F)(F)(F)F.[Li+]\n", encoding="utf-8")
    paths = dict(
        dir=str(tmp_path), csv=synthetic_csv, ckpt=str(ckpt), salts=str(salts), out=str(tmp_path / "ranked.csv")
    )
    assert cli([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "ranked.csv").exists()


def _micro_checkpoint_doc(edit=None):
    """The document `save_checkpoint` writes for a micro model, after
    `edit` has changed its parameters (given as a name -> Tensor dict)."""
    config = ModelConfig(
        num_layers=2, hidden_dim=4, representation_dim=6, attention_dim=3, rho_hidden_dims=(4,)
    )
    params = build_model(config)
    if edit is not None:
        edit(dict(named_parameters(params)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "micro.json")
        save_checkpoint(params, path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _nan_first_value(named):
    named["rho0.b"].data[0] = float("nan")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "config": {**doc["config"], "dropout": 0.1}},
        lambda doc: {**doc, "config": {**doc["config"], "hidden_dim": 0}},
        lambda doc: {**doc, "config": {**doc["config"], "max_solvents": 0}},
        lambda doc: _micro_checkpoint_doc(_nan_first_value),
        lambda doc: {**doc, "config": {**doc["config"], "seed": "x"}},
    ],
    ids=["json-list", "unknown-config-key", "zero-hidden-dim", "zero-max-solvents", "nan-parameter",
         "text-seed"],
)
def test_bad_checkpoint_document_is_data_error(tmp_path, synthetic_csv, capsys, corrupt):
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(corrupt(_micro_checkpoint_doc())), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert captured.out == ""


def _huge_head(named):
    for name in ("rho1.w", "rho1.b"):  # finite, but the head overflows to inf
        named[name].data = np.full_like(named[name].data, 1e308)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_prediction_is_numeric_failure(tmp_path, synthetic_csv, capsys):
    ckpt = tmp_path / "huge.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc(_huge_head)), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 3
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


def _distinct_huge_predictions(named):
    # Finite, distinct predictions near 1e155: the squared error overflows.
    named["rho1.w"].data = named["rho1.w"].data * 1e150
    named["rho1.b"].data = np.full_like(named["rho1.b"].data, 1e155)


def test_non_finite_metric_is_numeric_failure(tmp_path, synthetic_csv, capsys):
    ckpt = tmp_path / "huge.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc(_distinct_huge_predictions)), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 3
    captured = capsys.readouterr()
    assert "non-finite metrics: mse" in captured.err
    assert captured.out == ""


def test_oversized_model_config_is_one_line_data_error(tmp_path, synthetic_csv, capsys):
    doc = _micro_checkpoint_doc()
    doc["config"]["hidden_dim"] = 10**12
    ckpt = tmp_path / "huge-config.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    config = tmp_path / "huge-train.json"
    config.write_text(json.dumps({"model": {"hidden_dim": 10**12}}), encoding="utf-8")
    out = tmp_path / "m.json"
    train = ["train", "--config", str(config), "--data", synthetic_csv, "--val", synthetic_csv]
    for argv in (
        ["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv],
        train + ["--out", str(out)],
    ):
        capsys.readouterr()
        assert cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: model would have ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    assert not out.exists()


def test_screen_prints_skip_lines_when_enumeration_fails(tmp_path, capsys):
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    solvents = tmp_path / "solvents.txt"
    salts = tmp_path / "salts.txt"
    solvents.write_text("C1CCOC1\nCOCOC\n", encoding="utf-8")
    salts.write_text("XX\n", encoding="utf-8")
    ranked = tmp_path / "ranked.csv"
    code = cli(
        ["screen", "--checkpoint", str(ckpt), "--solvents", str(solvents), "--salts", str(salts), "--out", str(ranked)]
    )
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("skipped 'XX': ")
    assert lines[1] == "data error: need at least 1 salt"
    assert not ranked.exists()


def test_inputs_with_a_byte_order_mark_read_as_without_one(tmp_path, synthetic_csv, micro_config, capsys):
    # The SMILES lists, the checkpoint and the --config JSON may each start
    # with a UTF-8 byte-order mark, as some editors save them.
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    lists = {"solvents": "CCO\nC1CCOC1\nbad(smiles\nCOCOC\n", "salts": "[Li+].[Cl-]\n"}
    runs = {}
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        for name, text in lists.items():
            (folder / f"{name}.txt").write_text(text, encoding=encoding)
        (folder / "micro.json").write_text(ckpt.read_text(encoding="utf-8"), encoding=encoding)
        (folder / "config.json").write_text(Path(micro_config).read_text(encoding="utf-8"), encoding=encoding)
        ranked = folder / "ranked.csv"
        code = cli(
            ["screen", "--checkpoint", str(folder / "micro.json"), "--solvents", str(folder / "solvents.txt"),
             "--salts", str(folder / "salts.txt"), "--out", str(ranked)]
        )
        err = capsys.readouterr().err
        trained = folder / "trained.json"
        assert cli(
            ["train", "--config", str(folder / "config.json"), "--data", synthetic_csv, "--val", synthetic_csv,
             "--out", str(trained)]
        ) == 0
        capsys.readouterr()
        runs[encoding] = (code, err, ranked.read_bytes(), trained.read_bytes())
    assert (tmp_path / "utf-8-sig" / "solvents.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert runs["utf-8-sig"] == runs["utf-8"]
    assert runs["utf-8"][:2] == (2, "skipped 'bad(smiles': unsupported element 'a' (at offset 1 in 'bad(smiles')\n")


def _must_not_run(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refuse


@pytest.mark.parametrize(
    "flag, path",
    [
        ("--out", "{tmp}"),
        ("--out", "{tmp}/missing/model.json"),
        ("--history", "{tmp}"),
        ("--history", "{tmp}/missing/history.csv"),
    ],
    ids=["out-directory", "out-missing-parent", "history-directory", "history-missing-parent"],
)
def test_train_refuses_an_unwritable_output_before_training(
    tmp_path, synthetic_csv, micro_config, capsys, monkeypatch, flag, path
):
    monkeypatch.setattr("molsets.cli.train", _must_not_run("train"))
    paths = {"--out": str(tmp_path / "model.json"), "--history": str(tmp_path / "history.csv")}
    paths[flag] = path.format(tmp=tmp_path)
    argv = ["train", "--config", micro_config, "--data", synthetic_csv, "--val", synthetic_csv]
    code = cli(argv + [arg for item in paths.items() for arg in item])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"data error: cannot write {paths[flag]}: " + (
        "it is a directory\n" if path == "{tmp}" else f"directory {tmp_path / 'missing'} does not exist\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "history.csv").exists()


@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/missing/ranked.csv"], ids=["directory", "missing-parent"])
def test_screen_refuses_an_unwritable_output_before_screening(tmp_path, capsys, monkeypatch, out):
    monkeypatch.setattr("molsets.cli.run_screening", _must_not_run("run_screening"))
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    solvents = tmp_path / "solvents.txt"
    salts = tmp_path / "salts.txt"
    solvents.write_text("C1CCOC1\nCOCOC\n", encoding="utf-8")
    salts.write_text("[Li+].[Cl-]\n", encoding="utf-8")
    out = out.format(tmp=tmp_path)
    code = cli(["screen", "--checkpoint", str(ckpt), "--solvents", str(solvents), "--salts", str(salts), "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"data error: cannot write {out}: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, flag",
    [
        ("prepare", "--out"),
        ("split", "--out-train"),
        ("split", "--out-val"),
        ("split", "--out-test"),
        ("synth", "--out"),
        ("export-reprs", "--out"),
    ],
)
@pytest.mark.parametrize("bad", ["{out}", "{out}/missing/file.csv"], ids=["directory", "missing-parent"])
def test_data_commands_refuse_an_unwritable_output_before_reading(
    tmp_path, synthetic_csv, capsys, monkeypatch, command, flag, bad
):
    for name in ("load_dataset", "generate_synthetic"):
        monkeypatch.setattr(f"molsets.data.{name}", _must_not_run(name))
    monkeypatch.setattr("molsets.cli.load_checkpoint", _must_not_run("load_checkpoint"))
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    inputs = {
        "prepare": ["--in", synthetic_csv],
        "split": ["--in", synthetic_csv],
        "synth": ["--n", "5"],
        "export-reprs": ["--checkpoint", str(ckpt), "--data", synthetic_csv],
    }[command]
    flags = ["--out-train", "--out-val", "--out-test"] if command == "split" else ["--out"]
    outputs = {f: str(out / f"{f[2:]}.csv") for f in flags}
    outputs[flag] = bad.format(out=out)
    code = cli([command] + inputs + [arg for item in outputs.items() for arg in item])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"data error: cannot write {outputs[flag]}: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "train, val, test",
    [
        ("a.csv", "a.csv", "t.csv"),
        ("a.csv", "v.csv", "a.csv"),
        ("tr.csv", "a.csv", "a.csv"),
        ("a.csv", "./a.csv", "t.csv"),
    ],
    ids=["train-val", "train-test", "val-test", "second-spelling"],
)
def test_split_refuses_two_outputs_naming_one_file(tmp_path, synthetic_csv, capsys, monkeypatch, train, val, test):
    monkeypatch.setattr("molsets.data.load_dataset", _must_not_run("load_dataset"))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    code = cli(["split", "--in", synthetic_csv, "--out-train", train, "--out-val", val, "--out-test", test])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
    assert "name the same file" in captured.err
    assert captured.out == ""
    assert os.listdir(out) == []


TEMP = "--out's temp file"  # save_checkpoint writes <--out>.tmp, then renames it over --out


@pytest.mark.parametrize(
    "command, output, source",
    [
        ("prepare", "--out", "--in"),
        ("split", "--out-train", "--in"),
        ("split", "--out-val", "--in"),
        ("split", "--out-test", "--in"),
        ("train", "--out", "--data"),
        ("train", "--out", "--val"),
        ("train", "--out", "--config"),
        ("train", "--history", "--data"),
        ("train", "--history", "--val"),
        ("train", "--history", "--config"),
        ("train", "--history", "--out"),
        ("train", TEMP, "--data"),
        ("train", TEMP, "--val"),
        ("train", TEMP, "--config"),
        ("screen", "--out", "--checkpoint"),
        ("screen", "--out", "--solvents"),
        ("screen", "--out", "--salts"),
        ("export-reprs", "--out", "--checkpoint"),
        ("export-reprs", "--out", "--data"),
    ],
)
def test_commands_refuse_an_output_naming_an_input(
    tmp_path, synthetic_csv, micro_config, capsys, monkeypatch, command, output, source
):
    for name in ("train", "load_checkpoint", "run_screening"):
        monkeypatch.setattr(f"molsets.cli.{name}", _must_not_run(name))
    monkeypatch.setattr("molsets.data.load_dataset", _must_not_run("load_dataset"))
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    val = tmp_path / "val.csv"
    val.write_bytes(Path(synthetic_csv).read_bytes())
    (tmp_path / "solvents.txt").write_text("C1CCOC1\nCOCOC\n", encoding="utf-8")
    (tmp_path / "salts.txt").write_text("[Li+].[Cl-]\n", encoding="utf-8")
    inputs = {
        "prepare": {"--in": synthetic_csv},
        "split": {"--in": synthetic_csv},
        "train": {"--config": micro_config, "--data": synthetic_csv, "--val": str(val)},
        "screen": {
            "--checkpoint": str(ckpt),
            "--solvents": str(tmp_path / "solvents.txt"),
            "--salts": str(tmp_path / "salts.txt"),
        },
        "export-reprs": {"--checkpoint": str(ckpt), "--data": synthetic_csv},
    }[command]
    flags = {"split": ["--out-train", "--out-val", "--out-test"], "train": ["--out", "--history"]}
    out = tmp_path / "out"
    out.mkdir()
    outputs = {flag: str(out / f"{flag[2:]}.csv") for flag in flags.get(command, ["--out"])}
    if output == TEMP:  # the input is named like the checkpoint's temp file
        renamed = tmp_path / "model.json.tmp"
        renamed.write_bytes(Path(inputs[source]).read_bytes())
        inputs[source] = str(renamed)
        outputs["--out"] = os.path.join(str(tmp_path), ".", "model.json")
        written = outputs["--out"] + ".tmp"
    else:
        target = {**inputs, **outputs}[source]
        outputs[output] = written = os.path.join(os.path.dirname(target), ".", os.path.basename(target))
    before = {path: Path(path).read_bytes() for path in inputs.values()}
    code = cli([command] + [arg for item in {**inputs, **outputs}.items() for arg in item])
    captured = capsys.readouterr()
    assert code == 2
    message = f"cannot write {written}: {source} and {output} name the same file"
    assert captured.err == f"data error: {message}\n"
    assert captured.out == ""
    assert {path: Path(path).read_bytes() for path in inputs.values()} == before
    assert os.listdir(out) == []


def test_export_reprs_quotes_ids_that_need_it(tmp_path, capsys):
    ids = ['a,"b', "c\nd", 'e"', "plain", "f,g", "a\rb"]
    data = tmp_path / "data.csv"
    write_dataset(
        [dataclasses.replace(r, mixture_id=i) for r, i in zip(generate_synthetic(len(ids), seed=5), ids)],
        str(data),
    )
    ckpt = tmp_path / "micro.json"
    ckpt.write_text(json.dumps(_micro_checkpoint_doc()), encoding="utf-8")
    out = tmp_path / "reprs.csv"
    assert cli(["export-reprs", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mixture_id"] + [f"r_{i}" for i in range(6)]
    assert [row[0] for row in rows[1:]] == ids
    assert all(len(row) == 1 + 6 for row in rows)
    plain = rows[1 + ids.index("plain")]
    assert ",".join(plain) + "\n" in out.read_text(encoding="utf-8")  # no quotes where none are needed
