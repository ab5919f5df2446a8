import csv
import json
from pathlib import Path

import numpy as np
import pytest

from molsets.cli import cli
from molsets.data import CSV_COLUMNS, generate_synthetic, load_dataset, write_dataset
from molsets.model import ModelConfig, build_model, save_checkpoint

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


def test_screen_reports_partial_success(tmp_path, synthetic_csv, micro_config, capsys):
    ckpt = _train_checkpoint(tmp_path, synthetic_csv, micro_config)
    solvents = tmp_path / "solvents.txt"
    salts = tmp_path / "salts.txt"
    solvents.write_text("C1CCOC1\nCOCOC\nbad(smiles\n", encoding="utf-8")
    salts.write_text("[Li+].[Cl-]\n", encoding="utf-8")
    ranked = tmp_path / "ranked.csv"
    code = cli(
        ["screen", "--checkpoint", ckpt, "--solvents", str(solvents), "--salts", str(salts), "--out", str(ranked)]
    )
    assert code == 2  # exit code distinguishes partial success
    assert "skipped" in capsys.readouterr().err
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


def _micro_checkpoint_doc(tmp_path):
    path = tmp_path / "micro.json"
    config = ModelConfig(
        num_layers=2, hidden_dim=4, representation_dim=6, attention_dim=3, rho_hidden_dims=(4,)
    )
    save_checkpoint(build_model(config), str(path))
    return json.loads(path.read_text(encoding="utf-8"))


def _nan_first_value(doc):
    doc["params"]["rho0.b"]["values"][0] = float("nan")
    return doc


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "config": {**doc["config"], "dropout": 0.1}},
        lambda doc: {**doc, "config": {**doc["config"], "hidden_dim": 0}},
        lambda doc: {**doc, "config": {**doc["config"], "max_solvents": 0}},
        _nan_first_value,
        lambda doc: {**doc, "config": {**doc["config"], "seed": "x"}},
    ],
    ids=["json-list", "unknown-config-key", "zero-hidden-dim", "zero-max-solvents", "nan-parameter",
         "text-seed"],
)
def test_bad_checkpoint_document_is_data_error(tmp_path, synthetic_csv, capsys, corrupt):
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(corrupt(_micro_checkpoint_doc(tmp_path))), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_prediction_is_numeric_failure(tmp_path, synthetic_csv, capsys):
    doc = _micro_checkpoint_doc(tmp_path)
    for name in ("rho1.w", "rho1.b"):  # finite, but the head overflows to inf
        doc["params"][name]["values"] = [1e308] * len(doc["params"][name]["values"])
    ckpt = tmp_path / "huge.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 3
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_metric_is_numeric_failure(tmp_path, synthetic_csv, capsys):
    doc = _micro_checkpoint_doc(tmp_path)
    # Finite, distinct predictions near 1e155: the squared error overflows.
    doc["params"]["rho1.w"]["values"] = [v * 1e150 for v in doc["params"]["rho1.w"]["values"]]
    doc["params"]["rho1.b"]["values"] = [1e155] * len(doc["params"]["rho1.b"]["values"])
    ckpt = tmp_path / "huge.json"
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    assert cli(["eval", "--checkpoint", str(ckpt), "--data", synthetic_csv]) == 3
    captured = capsys.readouterr()
    assert "non-finite metrics: mse" in captured.err
    assert captured.out == ""
