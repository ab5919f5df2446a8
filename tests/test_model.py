import base64
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import frozen_checkpoint
import frozen_ops as F
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molsets import autodiff as ad
from molsets import model as model_mod
from molsets.autodiff import Tape, Tensor
from molsets.chem import NODE_FEATURE_DIM, build_graph
from molsets.model import (
    AttentionParams,
    VARIANTS,
    MixtureInput,
    ModelConfig,
    GraphStore,
    aggregate_mixture,
    build_model,
    embed_unions,
    forward,
    forward_batch,
    forward_columns,
    load_checkpoint,
    mixture_from_record,
    mixture_representation,
    named_parameters,
    predict,
    save_checkpoint,
    transform_head,
)
from molsets.gnn import CONV_KINDS, DenseParams, GraphTensors

THF = build_graph("C1CCOC1")
GLYME = build_graph("COCOC")
BENZENE = build_graph("C1=CC=CC=C1")
TOLUENE = build_graph("CC1=CC=CC=C1")
SALT = build_graph("F[P-](F)(F)(F)(F)F.[Li+]")

GOLDEN = Path(__file__).resolve().parent / "golden"

MICRO = dict(num_layers=2, hidden_dim=3, representation_dim=4, attention_dim=2, rho_hidden_dims=(3,))


def micro_model(variant="molsets", conv="graphconv", seed=0):
    return build_model(ModelConfig.for_conv(conv, variant=variant, seed=seed, **MICRO))


def _embed(phi, graph):
    """Representation of one molecule, (d,): its own union's one row."""
    return embed_unions(phi, [GraphTensors([graph])]).data[0]


def test_embed_with_zero_weights_returns_readout_bias():
    params = micro_model(seed=1)
    phi = params.phi_solvent
    for _, tensor in named_parameters(params):
        tensor.data[...] = 0.0
    phi.readout.b.data[...] = np.array([0.5, -1.0, 2.0, 0.25])
    z = _embed(phi, THF)
    assert np.array_equal(z, [0.5, -1.0, 2.0, 0.25])


def test_embed_isomorphic_graphs_agree():
    params = micro_model(seed=2)
    a = build_graph("C1CCOC1")
    b = build_graph("O1CCCC1")  # same ring, different atom order
    za = _embed(params.phi_solvent, a)
    zb = _embed(params.phi_solvent, b)
    assert np.abs(za - zb).max() <= 1e-10


def _random_attention(rng, d=4, dk=3):
    return AttentionParams(
        wq=Tensor(rng.uniform(-1, 1, (d, dk))),
        wk=Tensor(rng.uniform(-1, 1, (d, dk))),
        wv=Tensor(rng.uniform(-1, 1, (d, d))),
    )


def _one_set(att, rows, weights, segment=None, n_sets=1):
    segment = [0] * len(rows) if segment is None else segment
    return aggregate_mixture(att, Tensor(np.array(rows)), np.array(weights), segment, n_sets).data


def test_aggregate_singleton_is_value_projection():
    rng = np.random.default_rng(3)
    att = _random_attention(rng)
    z = rng.uniform(-1, 1, 4)
    assert np.array_equal(_one_set(att, [z], [1.0]), [z @ att.wv.data])
    # a batch of two singleton sets projects each row on its own
    z2 = rng.uniform(-1, 1, 4)
    out = _one_set(att, [z, z2], [1.0, 1.0], segment=[0, 1], n_sets=2)
    assert np.array_equal(out, [z @ att.wv.data, z2 @ att.wv.data])


def test_aggregate_two_identical_molecules():
    rng = np.random.default_rng(4)
    att = _random_attention(rng)
    z = rng.uniform(-1, 1, 4)
    out = _one_set(att, [z, z.copy()], [0.5, 0.5])
    assert np.allclose(out, [0.5 * (z @ att.wv.data)], atol=1e-15)


def test_aggregate_permutation_invariance():
    rng = np.random.default_rng(5)
    att = _random_attention(rng)
    triple = [(rng.uniform(-1, 1, 4), w) for w in (0.2, 0.3, 0.5)]
    pair = [(rng.uniform(-1, 1, 4), w) for w in (0.6, 0.4)]
    base = _one_set(att, [z for z, _ in triple], [w for _, w in triple])
    pair_alone = _one_set(att, [z for z, _ in pair], [w for _, w in pair])
    for perm in itertools.permutations(triple):
        out = _one_set(att, [z for z, _ in perm], [w for _, w in perm])
        assert np.abs(out - base).max() <= 1e-10
        # the same set interleaved with another one in a batch of two
        members = [(z, w, 0) for z, w in perm[:2]] + [(pair[1][0], pair[1][1], 1)]
        members += [(perm[2][0], perm[2][1], 0), (pair[0][0], pair[0][1], 1)]
        batch = _one_set(
            att, [z for z, _, _ in members], [w for _, w, _ in members],
            segment=[s for _, _, s in members], n_sets=2,
        )
        assert np.abs(batch[0] - base[0]).max() <= 1e-10
        assert np.abs(batch[1] - pair_alone[0]).max() <= 1e-10


def test_aggregate_rejects_empty_set():
    att = _random_attention(np.random.default_rng(0))
    with pytest.raises(ValueError):
        aggregate_mixture(att, Tensor(np.zeros((0, 4))), np.zeros(0), np.zeros(0, dtype=int), 1)
    with pytest.raises(ValueError):  # set 1 of 2 has no member
        aggregate_mixture(att, Tensor(np.ones((2, 4))), [0.5, 0.5], [0, 0], 2)


def test_transform_head_zero_weights_returns_bias():
    rho = [DenseParams(w=Tensor(np.zeros((3, 1))), b=Tensor([0.75]))]
    out = transform_head(rho, Tensor([[1.0], [4.0]]), Tensor([[2.0], [5.0]]), [3.0, 6.0])
    assert out.data.shape == (2,)
    assert np.array_equal(out.data, [0.75, 0.75])


def test_transform_head_hand_arithmetic():
    rho = [DenseParams(w=Tensor([[2.0], [3.0], [5.0]]), b=Tensor([7.0]))]
    out = transform_head(rho, Tensor([[1.0], [0.0]]), Tensor([[2.0], [1.0]]), [4.0, 1.0])
    assert np.array_equal(out.data, [2.0 + 6.0 + 20.0 + 7.0, 0.0 + 3.0 + 5.0 + 7.0])


def test_transform_head_dead_molality_column():
    w = np.array([[2.0], [3.0], [0.0]])  # zero weight on the molality input
    rho = [DenseParams(w=Tensor(w), b=Tensor([1.0]))]
    a = transform_head(rho, Tensor([[1.0]]), Tensor([[2.0]]), [0.0]).data[0]
    b = transform_head(rho, Tensor([[1.0]]), Tensor([[2.0]]), [99.0]).data[0]
    assert a == b


def test_predict_is_pure():
    params = micro_model(seed=6)
    mix = MixtureInput([(THF, 0.4), (GLYME, 0.6)], SALT, 1.2)
    assert predict(params, mix) == predict(params, mix)


def test_forward_item_is_the_prediction():
    params = micro_model(seed=6)
    mix = MixtureInput([(THF, 0.4), (GLYME, 0.6)], SALT, 1.2)
    assert forward(params, mix).item() == predict(params, mix)


def test_predict_permutation_invariance():
    params = micro_model(seed=7)
    solvents = [(THF, 0.2), (GLYME, 0.3), (BENZENE, 0.5)]
    base = predict(params, MixtureInput(solvents, SALT, 1.0))
    for perm in itertools.permutations(solvents):
        out = predict(params, MixtureInput(list(perm), SALT, 1.0))
        assert abs(out - base) <= 1e-9


def test_predict_singleton_equals_degenerate_path():
    params = micro_model(seed=20)
    z = embed_unions(params.phi_solvent, [GraphTensors([THF])])
    z_mix = aggregate_mixture(params.attention, z, [1.0], [0], 1)
    z_salt = embed_unions(params.phi_salt, [GraphTensors([SALT])])
    expected = transform_head(params.rho, z_mix, z_salt, [1.0]).data[0]
    assert predict(params, MixtureInput([(THF, 1.0)], SALT, 1.0)) == expected


def test_predict_split_solvent_order_independent():
    # Splitting one solvent into two half-weight copies: only order
    # independence is promised, not equality with the unsplit mixture.
    params = micro_model(seed=8)
    split = [(THF, 0.25), (THF, 0.25), (GLYME, 0.5)]
    a = predict(params, MixtureInput(split, SALT, 1.0))
    b = predict(params, MixtureInput(list(reversed(split)), SALT, 1.0))
    assert abs(a - b) <= 1e-9


def test_wsum_singleton_and_zero_weight():
    params = micro_model("wsum", seed=9)
    single_mix = MixtureInput([(THF, 1.0)], SALT, 1.0)
    padded_mix = MixtureInput([(THF, 1.0), (GLYME, 0.0)], SALT, 1.0)
    # Inside one batch both mixtures read THF's one embedding, so the
    # zero-weight solvent adds exactly nothing. Apart, THF is embedded alone
    # in one and in a union with GLYME in the other, which may round differently.
    single, padded = forward_batch(params, [single_mix, padded_mix]).data
    assert single == padded
    assert abs(predict(params, single_mix) - predict(params, padded_mix)) <= 1e-12


def test_wsum_permutation_invariance():
    params = micro_model("wsum", seed=10)
    solvents = [(THF, 0.3), (GLYME, 0.3), (TOLUENE, 0.4)]
    base = predict(params, MixtureInput(solvents, SALT, 0.8))
    for perm in itertools.permutations(solvents):
        out = predict(params, MixtureInput(list(perm), SALT, 0.8))
        assert abs(out - base) <= 1e-9


def test_wsum_weight_shift_between_identical_solvents():
    params = micro_model("wsum", seed=11)
    a = predict(params, MixtureInput([(THF, 0.25), (THF, 0.75)], SALT, 1.0))
    b = predict(params, MixtureInput([(THF, 0.5), (THF, 0.5)], SALT, 1.0))
    assert abs(a - b) <= 1e-12


def test_concat_variant_is_order_sensitive():
    hits = 0
    for seed in range(20):
        params = micro_model("concat", seed=100 + seed)
        a = predict(params, MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, 1.0))
        b = predict(params, MixtureInput([(GLYME, 0.5), (THF, 0.5)], SALT, 1.0))
        if abs(a - b) > 1e-6:
            hits += 1
    assert hits >= 18


def test_concat_variant_identical_solvents_swap_is_noop():
    params = micro_model("concat", seed=12)
    a = predict(params, MixtureInput([(THF, 0.5), (THF, 0.5)], SALT, 1.0))
    b = predict(params, MixtureInput([(THF, 0.5), (THF, 0.5)], SALT, 1.0))
    assert a == b


def test_concat_variant_enforces_max_solvents():
    params = micro_model("concat", seed=13)
    solvents = [(THF, 0.2), (GLYME, 0.2), (BENZENE, 0.2), (TOLUENE, 0.2), (SALT, 0.2)]
    with pytest.raises(ValueError):
        predict(params, MixtureInput(solvents, SALT, 1.0))


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_refuses_an_empty_solvent_set(variant):
    # Two mixtures; the second's solvent set has no member, so predicting
    # it would treat the mixture as salt-only.
    batch = model_mod.MixtureBatch(
        solvent_graphs=[THF],
        salt_graphs=[SALT],
        slot_graph=np.array([0]),
        slot_weight=np.array([1.0]),
        set_sizes=np.array([1, 0]),
        set_of=np.arange(2),
        salt_of=np.zeros(2, dtype=np.intp),
        molality=np.ones(2),
    )
    with pytest.raises(ValueError, match="cannot aggregate an empty mixture set"):
        forward_columns(micro_model(variant), batch)


def test_forward_refuses_no_mixtures_and_other_feature_widths():
    params = micro_model()
    for empty in (
        lambda: forward_batch(params, []),
        lambda: forward_columns(params, model_mod.batch_of(params, [])),
        lambda: mixture_representation(params, []),
    ):
        with pytest.raises(ValueError, match="at least one mixture"):
            empty()
    narrow = replace(THF, node_features=THF.node_features[:, 1:])
    with pytest.raises(ad.DimensionError, match=f"dim {NODE_FEATURE_DIM - 1}, expected {NODE_FEATURE_DIM}"):
        predict(params, MixtureInput([(narrow, 1.0)], SALT, 1.0))


EQUIVALENCE_MIXTURES = [
    [(THF, 1.0)],
    [(GLYME, 0.3), (THF, 0.7)],
    [(THF, 0.25), (THF, 0.75)],
    [(BENZENE, 0.2), (TOLUENE, 0.5), (GLYME, 0.3)],
]


def _reference_prediction(params, mix):
    """One mixture's prediction in plain numpy from one-molecule embeddings."""
    cfg = params.config

    def embed(graph):
        return _embed(params.phi_solvent, graph)

    if cfg.variant == "concat":
        pad = cfg.max_solvents - len(mix.solvents)
        weights = [w for _, w in mix.solvents] + [0.0] * pad
        z_mix = np.concatenate(
            [embed(g) for g, _ in mix.solvents] + [np.zeros(pad * cfg.representation_dim), weights]
        )
    else:
        z = np.array([embed(g) for g, _ in mix.solvents])
        w = np.array([w for _, w in mix.solvents])
        if cfg.variant == "molsets":
            att = params.attention
            logits = ((z @ att.wq.data) * (z @ att.wk.data)).sum(axis=1) / np.sqrt(att.wq.data.shape[1])
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            z_mix = ((z @ att.wv.data) * (alpha * w)[:, None]).sum(axis=0)
        else:
            z_mix = (z * w[:, None]).sum(axis=0)
    h = np.concatenate([z_mix, _embed(params.phi_salt, mix.salt), [mix.molality]])
    for layer in params.rho[:-1]:
        h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
    return float((h @ params.rho[-1].w.data + params.rho[-1].b.data)[0])


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_matches_hand_assembled_reference(variant, conv):
    params = micro_model(variant, conv, seed=21)
    mixes = [MixtureInput(solvents, SALT, 1.3) for solvents in EQUIVALENCE_MIXTURES]
    expected = [_reference_prediction(params, mix) for mix in mixes]
    for mix, value in zip(mixes, expected):
        assert abs(predict(params, mix) - value) <= 1e-12
        assert np.abs(forward_batch(params, [mix, mix]).data - value).max() <= 1e-12
    assert np.abs(forward_batch(params, mixes).data - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 512, 513, 514, 1025, 1100])
@pytest.mark.parametrize("variant", VARIANTS)
def test_head_blocks_match_one_head_over_the_batch(variant, n):
    params = micro_model(variant, seed=23)
    pool = [MixtureInput(gws, salt, 0.5) for gws in EQUIVALENCE_MIXTURES for salt in SALTS]
    mixes = [replace(pool[i % len(pool)], molality=0.01 * (i % 97)) for i in range(n)]
    batch = model_mod.batch_of(params, mixes)
    salts = embed_unions(params.phi_salt, batch.packed("salt"))
    whole = transform_head(
        params.rho,
        mixture_representation(params, mixes),
        ad.rows(salts, batch.salt_of),
        batch.molality,
    ).data
    assert np.array_equal(forward_batch(params, mixes).data, whole)


def test_concat_representation_layout():
    params = micro_model("concat", seed=22)
    mix = MixtureInput([(GLYME, 0.4), (THF, 0.6)], SALT, 1.0)
    rep = mixture_representation(params, [mix]).data[0]
    d = params.config.representation_dim
    assert rep.shape == (params.config.max_solvents * (d + 1),)
    glyme, thf = embed_unions(params.phi_solvent, [GraphTensors([GLYME, THF])]).data
    assert np.array_equal(rep[:d], glyme)
    assert np.array_equal(rep[d : 2 * d], thf)
    assert not rep[2 * d : 4 * d].any()
    assert np.array_equal(rep[4 * d :], [0.4, 0.6, 0.0, 0.0])


def test_mixture_representation_dimensions():
    params = build_model(ModelConfig.for_conv("graphconv", seed=15))
    mix = MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, 1.0)
    assert mixture_representation(params, [mix]).data.shape == (1, 32)
    assert mixture_representation(params, [mix, mix, mix]).data.shape == (3, 32)


def test_export_singleton_equals_constituent():
    params = micro_model(seed=16)
    single = mixture_representation(params, [MixtureInput([(THF, 1.0)], SALT, 1.0)]).data[0]
    assert np.array_equal(single, _embed(params.phi_solvent, THF) @ params.attention.wv.data)


def test_export_mixture_is_not_weighted_sum_of_constituents():
    params = micro_model(seed=17)
    mix = MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, 1.0)
    mixture, a, b = mixture_representation(
        params,
        [mix, MixtureInput([(THF, 1.0)], SALT, 1.0), MixtureInput([(GLYME, 1.0)], SALT, 1.0)],
    ).data
    assert np.abs(mixture - (0.5 * a + 0.5 * b)).max() > 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureInput([], SALT, 1.0)
    with pytest.raises(ValueError):
        MixtureInput([(THF, 0.5), (GLYME, 0.6)], SALT, 1.0)
    with pytest.raises(ValueError):
        MixtureInput([(THF, 1.0)], SALT, -0.1)
    with pytest.raises(ValueError):
        MixtureInput([(THF, float("nan")), (GLYME, 0.5)], SALT, 1.0)
    with pytest.raises(ValueError):
        MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, float("nan"))
    with pytest.raises(ValueError):
        MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, float("inf"))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = build_model(ModelConfig.for_conv("gatconv", variant="molsets", seed=18))
    path = tmp_path / "model.json"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))

    for (name_a, ta), (name_b, tb) in zip(named_parameters(params), named_parameters(loaded)):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data), name_a
    assert loaded.config == params.config

    mix = MixtureInput([(THF, 0.5), (GLYME, 0.5)], SALT, 1.0)
    assert predict(params, mix) == predict(loaded, mix)

    again = tmp_path / "model2.json"
    save_checkpoint(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "feature_schema_version", "params"}
    assert doc["feature_schema_version"] == model_mod.FEATURE_SCHEMA_VERSION


def test_checkpoint_of_numpy_integer_config_equals_int_config(tmp_path):
    sizes = dict(num_layers=2, hidden_dim=4, representation_dim=6, attention_dim=3, max_solvents=3, seed=7)
    saved = []
    for cast in (int, np.int64):
        config = ModelConfig(
            conv="gatconv", rho_hidden_dims=[cast(5)], **{k: cast(v) for k, v in sizes.items()}
        )
        path = tmp_path / f"{cast.__name__}.json"
        save_checkpoint(build_model(config), str(path))
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3))
def test_checkpoint_roundtrip_property(variant, conv, seed, scale):
    params = micro_model(variant, conv, seed=seed)
    for _, tensor in named_parameters(params):
        tensor.data = tensor.data * scale  # values off the initializer's grid
    mixes = [MixtureInput(solvents, SALT, 1.3) for solvents in EQUIVALENCE_MIXTURES]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for (name_a, ta), (name_b, tb) in zip(named_parameters(params), named_parameters(loaded)):
        assert name_a == name_b
        assert ta.data.tobytes() == tb.data.tobytes(), name_a
    before, after = forward_batch(params, mixes).data, forward_batch(loaded, mixes).data
    assert after.tobytes() == before.tobytes()


# Values whose decimal text and raw bytes are easy to get wrong: signed
# zero, subnormals and the ends of the finite range.
EXTREME_VALUES = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([1e-315, 1e-3, 1.0, 1e300]),
    planted=st.lists(st.sampled_from(EXTREME_VALUES), min_size=1, max_size=len(EXTREME_VALUES)),
)
def test_checkpoint_loads_what_the_values_encoder_wrote(variant, conv, seed, scale, planted):
    params = micro_model(variant, conv, seed=seed)
    for _, tensor in named_parameters(params):
        tensor.data = tensor.data * scale
        k = min(tensor.data.size, len(planted))
        tensor.data.flat[:k] = planted[:k]
    with tempfile.TemporaryDirectory() as tmp:
        path, frozen_path = os.path.join(tmp, "model.json"), os.path.join(tmp, "values.json")
        save_checkpoint(params, path)
        frozen_checkpoint.save_checkpoint(params, frozen_path)
        loaded = load_checkpoint(path)
        with open(frozen_path, encoding="utf-8") as fh:
            frozen = json.load(fh)["params"]
    for (name, original), (_, tensor) in zip(named_parameters(params), named_parameters(loaded)):
        entry = frozen[name]
        values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        assert tensor.data.tobytes() == original.data.tobytes() == values.tobytes(), name
        assert tensor.data.shape == original.data.shape, name
        assert tensor.data.flags.writeable and tensor.data.flags.c_contiguous, name
        assert tensor.data.dtype == np.float64 and tensor.data.dtype.isnative, name


GOLDEN_MICRO_PREDICTION = 2.156720842495902  # predict() of micro_model(seed=20) on the mixture below


def test_golden_checkpoint_pins_the_format(tmp_path):
    golden = GOLDEN / "checkpoint_micro.json"
    path = tmp_path / "model.json"
    save_checkpoint(micro_model(seed=20), str(path))
    assert path.read_bytes() == golden.read_bytes()
    mix = MixtureInput([(GLYME, 0.3), (THF, 0.7)], SALT, 1.3)
    assert predict(load_checkpoint(str(golden)), mix) == GOLDEN_MICRO_PREDICTION


def predict_micro_reprs(conv, variant, golden):
    """repr of predict() for each golden request, every graph built cold."""
    params = micro_model(variant, conv, seed=golden["seed"])
    reprs = []
    for request in golden["requests"]:
        solvents = [(build_graph(smiles), w) for smiles, w in request["solvents"]]
        mix = MixtureInput(solvents, build_graph(request["salt"]), request["molality"])
        reprs.append(repr(predict(params, mix)))
    return reprs


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_cold_predictions_match_golden(variant, conv):
    golden = json.loads((GOLDEN / "predict_micro.json").read_text())
    assert predict_micro_reprs(conv, variant, golden) == golden["predictions"][f"{conv}/{variant}"], (
        "a cold prediction changed; the golden pins the numpy and OpenBLAS kernels of the machine "
        "that wrote it, so on another machine a last-bit difference in a product also fails here"
    )


def test_checkpoint_load_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random number")

    # default_rng, Generator and every other public numpy.random callable.
    for name in dir(np.random):
        if not name.startswith("_") and callable(getattr(np.random, name)):
            monkeypatch.setattr(np.random, name, refuse)
    with pytest.raises(AssertionError, match="drew a random number"):
        build_model(ModelConfig())
    params = load_checkpoint(str(GOLDEN / "checkpoint_micro.json"))
    mix = MixtureInput([(GLYME, 0.3), (THF, 0.7)], SALT, 1.3)
    assert predict(params, mix) == GOLDEN_MICRO_PREDICTION


def _saved_checkpoint_doc(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(micro_model(seed=23), str(path))
    return path, json.loads(path.read_text())


def _with_saved_value(name, value):
    """The document of the same model saved with the first value of `name` set to `value`."""
    params = micro_model(seed=23)
    dict(named_parameters(params))[name].data.flat[0] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_checkpoint(params, path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def test_checkpoint_rejects_other_feature_schema_version(tmp_path):
    path, doc = _saved_checkpoint_doc(tmp_path)
    doc["feature_schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema version"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_unknown_parameter(tmp_path):
    path, doc = _saved_checkpoint_doc(tmp_path)
    doc["params"]["attention.extra"] = doc["params"]["rho0.b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="attention.extra"):
        load_checkpoint(str(path))


def _with_config(doc, **changes):
    return {**doc, "config": {**doc["config"], **changes}}


def _with_entry(doc, name, **entry):
    return {**doc, "params": {**doc["params"], name: {"shape": doc["params"][name]["shape"], **entry}}}


def _with_shape(doc, name, shape):
    return {**doc, "params": {**doc["params"], name: {**doc["params"][name], "shape": shape}}}


def _one_float_short(doc, name):
    raw = base64.b64decode(doc["params"][name]["float64"])
    return _with_entry(doc, name, float64=base64.b64encode(raw[:-8]).decode("ascii"))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {**doc, "config": [1, 2]}, "config"),
        (lambda doc: {key: doc[key] for key in ("config", "feature_schema_version")}, "params"),
        (lambda doc: _with_config(doc, dropout=0.1), "dropout"),
        (lambda doc: {**doc, "config": {k: v for k, v in doc["config"].items() if k != "seed"}}, "seed"),
        (lambda doc: _with_config(doc, hidden_dim=0), "hidden_dim"),
        (lambda doc: _with_config(doc, max_solvents=0), "max_solvents"),
        (lambda doc: {**doc, "params": {k: v for k, v in doc["params"].items() if k != "rho0.b"}}, "missing parameter 'rho0.b'"),
        (lambda doc: _with_saved_value("rho0.b", float("nan")), "rho0.b"),
        (lambda doc: _with_saved_value("attention.wq", float("-inf")), "attention.wq"),
        (lambda doc: {**doc, "params": {**doc["params"], "rho0.w": [0.0]}}, "rho0.w"),
        (
            lambda doc: _with_entry(doc, "rho0.w", float64="!" + doc["params"]["rho0.w"]["float64"]),
            "rho0.w",
        ),
        (lambda doc: _one_float_short(doc, "rho0.w"), "rho0.w"),
        (lambda doc: _with_entry(doc, "rho0.w", float64=[0.0] * 12), "rho0.w.*base64 string"),
        (lambda doc: _with_entry(doc, "rho0.w", values=[0.0] * 12), "rho0.w.*'shape' and 'float64'"),
        (lambda doc: _with_shape(doc, "rho0.b", [-1]), r"rho0.b' has shape \[-1\], expected \[3\]"),
        (lambda doc: _with_shape(doc, "phi_salt.readout.w", [-1, 4]), "phi_salt.readout.w' has shape"),
        (lambda doc: _with_shape(doc, "rho1.b", [True]), r"rho1.b' has shape \[True\], expected \[1\]"),
        (lambda doc: _with_shape(doc, "rho1.b", [1.0]), "rho1.b' has shape"),
        (lambda doc: _with_shape(doc, "rho1.b", 1), "rho1.b' has shape"),
    ],
    ids=[
        "json-list",
        "config-not-object",
        "no-params",
        "unknown-config-key",
        "missing-config-key",
        "zero-hidden-dim",
        "zero-max-solvents",
        "missing-parameter",
        "nan-parameter",
        "inf-parameter",
        "parameter-not-object",
        "payload-not-base64",
        "payload-one-float-short",
        "payload-list",
        "old-values-entry",
        "shape-minus-one",
        "shape-minus-one-by-columns",
        "shape-true",
        "shape-float",
        "shape-not-list",
    ],
)
def test_checkpoint_rejects_malformed_documents(tmp_path, corrupt, message):
    path, doc = _saved_checkpoint_doc(tmp_path)
    path.write_text(json.dumps(corrupt(doc)))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_layers", 0),
        ("hidden_dim", 0),
        ("hidden_dim", -4),
        ("representation_dim", 0),
        ("attention_dim", 0),
        ("max_solvents", 0),
        ("rho_hidden_dims", (3, 0)),
        ("seed", -1),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", True),
        ("variant", "foo"),
        ("conv", "foo"),
        ("rho_hidden_dims", 3),
    ],
)
def test_model_config_rejects_non_positive_sizes(field, value):
    # Both constructors refuse, with the same ValueError.
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        ModelConfig.for_conv(**{"conv": "graphconv", field: value})


def _hand_count(config) -> int:
    """The parameter count worked out by hand, as the limit check did before
    parameter_layout: the reference for the layout's sizes."""
    f, layers = NODE_FEATURE_DIM, config.num_layers
    h, r = config.hidden_dim, config.representation_dim
    if config.conv == "dmpnn":
        convs = (f + 1) * h + h * h + (f + h) * h
    else:
        matrices = 1 if config.conv == "gcnconv" else 2
        convs = matrices * (f + (layers - 1) * h) * h
        if config.conv == "gatconv":
            convs += 2 * h * layers  # one attention vector per layer
    attention = r * (2 * config.attention_dim + r) if config.variant == "molsets" else 0
    dims = [config.rho_input_dim(), *config.rho_hidden_dims, 1]
    rho = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
    return 2 * (convs + (h + 2) * r) + attention + rho  # readout: (h + 1, r) and (r,)


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_count_is_what_build_model_allocates(variant, conv):
    for overrides in ({}, MICRO, dict(num_layers=1, rho_hidden_dims=()), dict(max_solvents=7)):
        cfg = ModelConfig.for_conv(conv, variant=variant, **overrides)
        params = build_model(cfg)
        allocated = sum(t.data.size for _, t in named_parameters(params))
        assert params.values.size == allocated == _hand_count(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(hidden_dim=10**12),
        dict(num_layers=10**6),
        dict(rho_hidden_dims=(4000, 4000)),
        dict(variant="concat", max_solvents=10**6),
        dict(hidden_dim=np.int64(2**62)),  # counted in Python ints, so it does not wrap
    ],
)
def test_model_config_rejects_too_many_parameters(overrides, monkeypatch):
    # The config itself refuses, so build_model never allocates; it stops
    # reading the layout once the count passes the limit, so a million
    # layers cost no million entries.
    layout = model_mod.parameter_layout
    entries = []

    def counted(config):
        for entry in layout(config):
            entries.append(entry)
            yield entry

    monkeypatch.setattr(model_mod, "parameter_layout", counted)
    with pytest.raises(ValueError, match="parameters, more than the 10000000 allowed"):
        ModelConfig(**overrides)
    assert len(entries) < 10**5


def test_failed_checkpoint_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    save_checkpoint(micro_model(seed=24), str(path))
    before = path.read_bytes()

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"config": ')
        raise OSError("disk full")

    monkeypatch.setattr(model_mod.json, "dump", broken_dump)
    with pytest.raises(OSError):
        save_checkpoint(micro_model(seed=25), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def build_model_digest(config) -> str:
    """sha256 of build_model(config): each parameter's name, shape and bytes."""
    h = hashlib.sha256()
    for name, tensor in named_parameters(build_model(config)):
        h.update(f"{name}{tensor.data.shape}".encode())
        h.update(tensor.data.astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_build_model_matches_golden(variant, conv):
    golden = json.loads((GOLDEN / "train_grid.json").read_text())["build_model"]
    for seed in (0, 7, 123):
        digest = build_model_digest(ModelConfig.for_conv(conv, variant=variant, seed=seed))
        assert digest == golden[f"{conv}/{variant}/{seed}"], (
            "the initial parameters changed; the golden pins the numpy kernels of the machine "
            "that wrote it, so on another machine a last-bit difference also fails here"
        )


@pytest.mark.parametrize("conv", CONV_KINDS)
def test_only_a_dmpnn_layer_holds_iterations_also_after_a_load(conv, tmp_path):
    params = build_model(ModelConfig.for_conv(conv, num_layers=4))
    path = tmp_path / "model.json"
    save_checkpoint(params, str(path))
    for model in (params, load_checkpoint(str(path))):
        for phi in (model.phi_solvent, model.phi_salt):
            assert [c.iterations for c in phi.convs] == ([4] if conv == "dmpnn" else [None] * 4)


def test_build_model_is_seed_deterministic():
    a = build_model(ModelConfig.for_conv("graphconv", seed=19))
    b = build_model(ModelConfig.for_conv("graphconv", seed=19))
    for (_, ta), (_, tb) in zip(named_parameters(a), named_parameters(b)):
        assert np.array_equal(ta.data, tb.data)


def test_graph_store_reuses_objects():
    store = GraphStore()
    assert store.get("C1CCOC1") is store.get("C1CCOC1")
    assert store.get("C1CCOC1") is not store.get("C1CCOC1", 1000.0)


def test_mixture_from_record_duck_typed():
    class Record:
        solvent_smiles = ["C1CCOC1", "COCOC"]
        weight_fractions = [0.4, 0.6]
        mol_weight_overrides = [None, 250.0]
        salt_smiles = "F[P-](F)(F)(F)(F)F.[Li+]"
        molality = 1.5

    mix = mixture_from_record(Record(), GraphStore())
    assert len(mix.solvents) == 2
    assert mix.solvents[1][0].log_mol_weight == pytest.approx(np.log10(250.0))
    assert mix.molality == 1.5


# Batched forward properties. Models are built once per variant x conv;
# the pool holds repeats of one graph object so batches share embeddings.
POOL = [THF, GLYME, BENZENE, TOLUENE, build_graph("[Li+]"), build_graph("CCO")]
SALTS = [SALT, build_graph("[Li+].[Cl-]")]
MAX_SOLVENTS = ModelConfig().max_solvents
_MODELS = {}


def _model(variant, conv):
    key = (variant, conv)
    if key not in _MODELS:
        _MODELS[key] = micro_model(variant, conv, seed=40)
    return _MODELS[key]


@st.composite
def mixture_batches(draw):
    mixes = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, MAX_SOLVENTS))
        graphs = draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n))
        raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
        weights = [w / sum(raw) for w in raw]
        salt = draw(st.sampled_from(SALTS))
        mixes.append(MixtureInput(list(zip(graphs, weights)), salt, draw(st.floats(0.0, 3.0))))
    return mixes


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    variant=st.sampled_from(VARIANTS),
    conv=st.sampled_from(CONV_KINDS),
    mixes=mixture_batches(),
)
def test_forward_batch_matches_single_mixture_forward(variant, conv, mixes):
    params = _model(variant, conv)
    batch = forward_batch(params, mixes).data
    reverse = forward_batch(params, mixes[::-1]).data[::-1]
    single = np.array([forward(params, mix).data[0] for mix in mixes])
    assert batch.shape == (len(mixes),)
    assert np.abs(batch - single).max() <= 1e-12
    assert np.abs(reverse - single).max() <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    variant=st.sampled_from(("molsets", "wsum")),
    conv=st.sampled_from(CONV_KINDS),
    mixes=mixture_batches(),
    data=st.data(),
)
def test_forward_batch_solvent_permutation_invariance(variant, conv, mixes, data):
    params = _model(variant, conv)
    which = data.draw(st.integers(0, len(mixes) - 1))
    mix = mixes[which]
    order = data.draw(st.permutations(range(len(mix.solvents))))
    permuted = list(mixes)
    permuted[which] = MixtureInput([mix.solvents[i] for i in order], mix.salt, mix.molality)
    base = forward_batch(params, mixes).data
    moved = forward_batch(params, permuted).data
    assert np.abs(moved - base).max() <= 1e-12


def _parameter_gradients(params, loss_fn):
    named = named_parameters(params)
    with Tape() as tape:
        tape.watch(*[t for _, t in named])
        loss = loss_fn()
    grads = ad.backward(tape, loss)
    return {name: grads[t] for name, t in named}


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_batch_gradients_match_per_mixture_losses(variant, conv):
    params = micro_model(variant, conv, seed=41)
    mixes = [
        MixtureInput(solvents, SALTS[i % 2], 0.5 + i)
        for i, solvents in enumerate(EQUIVALENCE_MIXTURES)
    ]
    mixes.append(MixtureInput([(GLYME, 0.5), (POOL[4], 0.5)], SALT, 1.0))
    targets = np.linspace(-3.0, -1.0, len(mixes))

    def batch_loss():
        diff = F.sub(forward_batch(params, mixes), Tensor(targets))
        return F.reduce_sum(F.mul(diff, diff))

    def summed_losses():
        total = None
        for mix, target in zip(mixes, targets):
            diff = F.sub(forward(params, mix), Tensor([target]))
            term = F.reduce_sum(F.mul(diff, diff))
            total = term if total is None else F.add(total, term)
        return total

    batched = _parameter_gradients(params, batch_loss)
    reference = _parameter_gradients(params, summed_losses)
    for name, grad in batched.items():
        assert np.abs(grad - reference[name]).max() <= 1e-12, name


# Slices of one dataset batch (MixtureBatch.take) against a batch built
# from the sliced mixtures. The dataset's two long chains put more than
# _UNION_ATOMS solvent atoms in some slices, so those span two unions.
_TAKE_POOL = POOL + [build_graph("C" * 100), build_graph("CCO" * 35)]


def _take_dataset(n, seed):
    rng = np.random.default_rng(seed)
    mixes = []
    for _ in range(n):
        size = int(rng.integers(1, MAX_SOLVENTS + 1))
        graphs = [_TAKE_POOL[i] for i in rng.choice(len(_TAKE_POOL), size, replace=False)]
        raw = rng.uniform(0.1, 1.0, size)
        salt = SALTS[int(rng.integers(len(SALTS)))]
        mixes.append(MixtureInput(list(zip(graphs, raw / raw.sum())), salt, float(rng.uniform(0, 3))))
    return mixes


TAKE_MIXES = _take_dataset(48, seed=12)


def _slots(batch):
    """(graph, weight) of each slot and the size of each set, graphs by identity."""
    return [batch.solvent_graphs[k] for k in batch.slot_graph], batch.slot_weight, batch.set_sizes


@pytest.mark.parametrize("conv", CONV_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.integers(0, len(TAKE_MIXES) - 1), min_size=1, max_size=64))
def test_take_matches_a_batch_of_the_same_mixtures(variant, conv, rows):
    params = _model(variant, conv)
    whole = model_mod.batch_of(params, TAKE_MIXES)
    piece = whole.take(rows)
    mixes = [TAKE_MIXES[i] for i in rows]
    ref = model_mod.batch_of(params, mixes)
    # The same columns up to renumbering of the graphs.
    (graphs, weights, sizes), (ref_graphs, ref_weights, ref_sizes) = _slots(piece), _slots(ref)
    assert len(graphs) == len(ref_graphs) and all(a is b for a, b in zip(graphs, ref_graphs))
    assert np.array_equal(weights, ref_weights) and np.array_equal(sizes, ref_sizes)
    assert np.array_equal(piece.set_of, ref.set_of)
    assert all(piece.salt_graphs[a] is ref.salt_graphs[b] for a, b in zip(piece.salt_of, ref.salt_of))
    assert np.array_equal(piece.molality, ref.molality)
    # The slice keeps the dataset's graph order and holds each graph once.
    for part, parent in ((piece.solvent_graphs, whole.solvent_graphs), (piece.salt_graphs, whole.salt_graphs)):
        position = [next(k for k, g in enumerate(parent) if g is graph) for graph in part]
        assert position == sorted(set(position))
    value = forward_columns(params, piece).data
    assert np.abs(value - forward_batch(params, mixes).data).max() <= 1e-12


def test_take_shares_the_batch_unions_when_it_holds_all_its_graphs():
    params = _model("molsets", "graphconv")
    whole = model_mod.batch_of(params, TAKE_MIXES)
    before = {f.name: getattr(whole, f.name) for f in fields(whole) if f.name != "unions"}
    contents = {name: list(value) for name, value in before.items()}
    long_chain = _TAKE_POOL[-1]
    without = [i for i, mix in enumerate(TAKE_MIXES) if all(g is not long_chain for g, _ in mix.solvents)]
    one_salt = [i for i, mix in enumerate(TAKE_MIXES) if mix.salt is SALTS[0]]
    # A slice that misses graphs of both pathways builds nothing for the batch.
    few = whole.take(one_salt[:2])
    forward_columns(params, few)
    assert few.unions and not whole.unions
    # One that holds all of them, in any row order and with repeats, gets
    # the batch's own unions; so does the next, after a slice without the
    # long chain, whose solvent unions are its own.
    full = whole.take(np.arange(len(TAKE_MIXES)))
    partial = whole.take(without)
    again = whole.take([*range(len(TAKE_MIXES) - 1, -1, -1), 3, 3])
    for piece in (full, again):
        for pathway in ("solvent", "salt"):
            assert piece.unions[pathway] is whole.packed(pathway)
    assert len(partial.solvent_graphs) == len(whole.solvent_graphs) - 1
    assert "solvent" not in partial.unions
    forward_columns(params, partial)
    assert not any(gt is own for gt in partial.packed("solvent") for own in whole.packed("solvent"))
    # take changes no other field of the batch.
    for name, value in before.items():
        assert getattr(whole, name) is value
        assert list(value) == contents[name], name  # graphs compare by identity


def test_take_needs_each_mixture_its_own_set():
    params = _model("molsets", "graphconv")
    shared = model_mod.batch_of(params, TAKE_MIXES[:2])
    shared.set_of = np.array([0, 0])
    with pytest.raises(ValueError, match="its own set"):
        shared.take([0])
    with pytest.raises(ValueError, match="at least one row"):
        model_mod.batch_of(params, TAKE_MIXES[:2]).take([])
