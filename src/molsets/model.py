"""The mixture conductivity predictor and its ablation variants.

The full model is a dual-pathway deep-sets architecture: a per-molecule
graph-network embedding (one pathway for solvents, one for the salt), an
attention-weighted set aggregation over the solvent embeddings, and a
dense head on [solvent mixture representation, salt representation,
molality]. Two ablations share the embedding pathway: a plain weighted
sum in place of attention (still permutation invariant), and a
concatenate-and-pad variant that is deliberately order-sensitive.

Solvents are sorted by their source SMILES before aggregation so that
repeated evaluations are bit-identical; the aggregation itself is a set
operation, so any input order yields the same value up to floating-point
roundoff.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chem import MolecularGraph, NODE_FEATURE_DIM, build_graph
from .gnn import (
    CONV_KINDS,
    ConvParams,
    DenseParams,
    GraphTensors,
    conv_forward,
    conv_param_tensors,
    dense_forward,
    dmpnn_forward,
    global_mean_pool,
    init_conv,
    init_dense,
)

FEATURE_SCHEMA_VERSION = 1

VARIANTS = ("molsets", "wsum", "concat")

# conv kind -> (num_layers, hidden_dim, representation_dim, attention_dim)
DEFAULT_HPARAMS = {
    "sageconv": (3, 32, 16, 8),
    "graphconv": (3, 16, 32, 16),
    "gcnconv": (3, 16, 16, 8),
    "gatconv": (2, 16, 32, 8),
    "dmpnn": (3, 32, 16, 16),
}


@dataclass
class ModelConfig:
    variant: str = "molsets"
    conv: str = "graphconv"
    num_layers: int = 3
    hidden_dim: int = 16
    representation_dim: int = 32
    attention_dim: int = 16
    rho_hidden_dims: tuple[int, ...] = (32, 16)
    max_solvents: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.conv not in CONV_KINDS:
            raise ValueError(f"unknown convolution kind {self.conv!r}")
        self.rho_hidden_dims = tuple(int(d) for d in self.rho_hidden_dims)

    @classmethod
    def for_conv(cls, conv: str, variant: str = "molsets", seed: int = 0, **overrides) -> "ModelConfig":
        """Config with the tuned defaults for the given convolution operator."""
        layers, hidden, repr_dim, att = DEFAULT_HPARAMS[conv]
        base = dict(
            variant=variant,
            conv=conv,
            num_layers=layers,
            hidden_dim=hidden,
            representation_dim=repr_dim,
            attention_dim=att,
            seed=seed,
        )
        base.update(overrides)
        return cls(**base)

    def rho_input_dim(self) -> int:
        if self.variant == "concat":
            return (
                self.max_solvents * self.representation_dim
                + self.max_solvents
                + self.representation_dim
                + 1
            )
        return 2 * self.representation_dim + 1


@dataclass
class MixtureInput:
    """An unordered solvent set with weight fractions, one salt, and molality."""

    solvents: list[tuple[MolecularGraph, float]]
    salt: MolecularGraph
    molality: float

    def __post_init__(self):
        if not self.solvents:
            raise ValueError("a mixture needs at least one solvent")
        weights = [w for _, w in self.solvents]
        if not all(0 <= w <= 1 for w in weights):
            raise ValueError(f"weight fractions must lie in [0, 1], got {weights}")
        if abs(sum(weights) - 1.0) > 1e-6:
            raise ValueError(f"weight fractions sum to {sum(weights)!r}, expected 1")
        if not (math.isfinite(self.molality) and self.molality >= 0):
            raise ValueError(f"molality must be finite and >= 0, got {self.molality}")


@dataclass
class GnnParams:
    convs: list[ConvParams]
    readout: DenseParams  # (hidden + 1) -> representation_dim
    num_layers: int


@dataclass
class AttentionParams:
    wq: Tensor  # (representation_dim, d_k)
    wk: Tensor  # (representation_dim, d_k)
    wv: Tensor  # (representation_dim, representation_dim)
    d_k: int


@dataclass
class ModelParams:
    config: ModelConfig
    phi_solvent: GnnParams
    phi_salt: GnnParams
    attention: AttentionParams | None
    rho: list[DenseParams]


def _build_gnn(config: ModelConfig, rng: np.random.Generator) -> GnnParams:
    convs = []
    if config.conv == "dmpnn":
        convs.append(init_conv("dmpnn", NODE_FEATURE_DIM, config.hidden_dim, rng))
    else:
        dim = NODE_FEATURE_DIM
        for _ in range(config.num_layers):
            convs.append(init_conv(config.conv, dim, config.hidden_dim, rng))
            dim = config.hidden_dim
    readout = init_dense(config.hidden_dim + 1, config.representation_dim, rng)
    return GnnParams(convs=convs, readout=readout, num_layers=config.num_layers)


def build_model(config: ModelConfig) -> ModelParams:
    """Freshly initialized parameters for the configured variant."""
    rng = np.random.default_rng(config.seed)
    phi_solvent = _build_gnn(config, rng)
    phi_salt = _build_gnn(config, rng)

    attention = None
    if config.variant == "molsets":
        d = config.representation_dim
        attention = AttentionParams(
            wq=Tensor(rng.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), (d, config.attention_dim))),
            wk=Tensor(rng.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), (d, config.attention_dim))),
            wv=Tensor(rng.uniform(-1 / math.sqrt(d), 1 / math.sqrt(d), (d, d))),
            d_k=config.attention_dim,
        )

    rho = []
    dim = config.rho_input_dim()
    for hidden in config.rho_hidden_dims:
        rho.append(init_dense(dim, hidden, rng))
        dim = hidden
    rho.append(init_dense(dim, 1, rng))

    return ModelParams(
        config=config,
        phi_solvent=phi_solvent,
        phi_salt=phi_salt,
        attention=attention,
        rho=rho,
    )


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """All learnable tensors keyed by layer path, in a stable order."""
    named: list[tuple[str, Tensor]] = []
    for prefix, gnn in (("phi_solvent", params.phi_solvent), ("phi_salt", params.phi_salt)):
        for idx, conv in enumerate(gnn.convs):
            for name, tensor in conv_param_tensors(conv):
                named.append((f"{prefix}.conv{idx}.{name}", tensor))
        named.append((f"{prefix}.readout.w", gnn.readout.w))
        named.append((f"{prefix}.readout.b", gnn.readout.b))
    if params.attention is not None:
        named.append(("attention.wq", params.attention.wq))
        named.append(("attention.wk", params.attention.wk))
        named.append(("attention.wv", params.attention.wv))
    for idx, layer in enumerate(params.rho):
        named.append((f"rho{idx}.w", layer.w))
        named.append((f"rho{idx}.b", layer.b))
    return named


_graph_tensors: "weakref.WeakKeyDictionary[MolecularGraph, GraphTensors]" = (
    weakref.WeakKeyDictionary()
)


def _topology(graph: MolecularGraph) -> GraphTensors:
    gt = _graph_tensors.get(graph)
    if gt is None:
        gt = GraphTensors.from_graph(graph)
        _graph_tensors[graph] = gt
    return gt


def embed_molecule(phi: GnnParams, graph: MolecularGraph) -> Tensor:
    """Molecule representation: conv stack, mean pool, concat log M, dense."""
    if graph.node_features.shape[1] != NODE_FEATURE_DIM:
        raise ad.DimensionError(
            f"graph features have dim {graph.node_features.shape[1]}, "
            f"expected {NODE_FEATURE_DIM}"
        )
    gt = _topology(graph)
    x = Tensor(graph.node_features)
    convs = phi.convs
    if convs[0].kind == "dmpnn":
        x = dmpnn_forward(convs[0], x, gt, iterations=phi.num_layers)
    else:
        for idx, conv in enumerate(convs):
            x = conv_forward(conv, x, gt)
            if idx < len(convs) - 1:
                x = ad.relu(x)
    pooled = global_mean_pool(x)
    with_mass = ad.concat([pooled, Tensor([graph.log_mol_weight])])
    return dense_forward(phi.readout, with_mass)


def aggregate_mixture(
    attention: AttentionParams, reprs_and_weights: list[tuple[Tensor, float]]
) -> Tensor:
    """Attention-weighted set aggregation of molecule representations.

    Each molecule gets a scalar logit q.k / sqrt(d_k); the softmax over
    the whole set scales the value vectors, which are then combined in a
    weight-fraction-weighted sum. The result is independent of the input
    enumeration order (up to float roundoff).
    """
    if not reprs_and_weights:
        raise ValueError("cannot aggregate an empty mixture set")
    d = attention.wq.data.shape[0]
    inv_sqrt_dk = 1.0 / math.sqrt(attention.d_k)

    logits = []
    values = []
    for z, _ in reprs_and_weights:
        row = ad.reshape(z, (1, d))
        q = ad.matmul(row, attention.wq)
        k = ad.matmul(row, attention.wk)
        values.append(ad.matmul(row, attention.wv))
        logits.append(ad.reshape(ad.scale(ad.reduce_sum(ad.mul(q, k)), inv_sqrt_dk), (1,)))

    scores = ad.reshape(ad.softmax(ad.concat(logits)), (len(logits), 1))
    total = None
    for idx, (_, w) in enumerate(reprs_and_weights):
        term = ad.scale(ad.mul(values[idx], ad.rows(scores, [idx])), w)
        total = term if total is None else ad.add(total, term)
    return ad.reshape(total, (d,))


def transform_head(
    rho: list[DenseParams], z_solvent: Tensor, z_salt: Tensor, molality: float
) -> Tensor:
    """Dense stack on [solvent repr, salt repr, molality]; returns a (1,) tensor."""
    h = ad.concat([z_solvent, z_salt, Tensor([molality])])
    for layer in rho[:-1]:
        h = dense_forward(layer, h, "relu")
    return dense_forward(rho[-1], h)


EmbedCache = dict[tuple[int, MolecularGraph], Tensor]


def _embed(params: ModelParams, pathway: int, graph: MolecularGraph, cache: EmbedCache | None) -> Tensor:
    phi = params.phi_solvent if pathway == 0 else params.phi_salt
    if cache is None:
        return embed_molecule(phi, graph)
    key = (pathway, graph)
    z = cache.get(key)
    if z is None:
        z = cache[key] = embed_molecule(phi, graph)
    return z


def _check_mixture(params: ModelParams, mix: MixtureInput) -> None:
    if len(mix.solvents) > params.config.max_solvents:
        raise ValueError(
            f"mixture has {len(mix.solvents)} solvents, "
            f"model accepts at most {params.config.max_solvents}"
        )


def _canonical(solvents: list[tuple[MolecularGraph, float]]):
    return sorted(solvents, key=lambda gw: gw[0].source_smiles)


def mixture_representation(
    params: ModelParams, mix: MixtureInput, cache: EmbedCache | None = None
) -> Tensor:
    """Solvent part of the head input, the only place each variant differs.

    molsets: attention aggregation of the canonically sorted solvents.
    wsum: weight-fraction-weighted sum of their embeddings. concat: the
    embeddings in the order given, zero padding up to max_solvents, then
    the padded weight fractions (deliberately not permutation invariant).
    """
    _check_mixture(params, mix)
    cfg = params.config
    if cfg.variant == "concat":
        pad = cfg.max_solvents - len(mix.solvents)
        parts = [_embed(params, 0, g, cache) for g, _ in mix.solvents]
        if pad:
            parts.append(Tensor(np.zeros(pad * cfg.representation_dim)))
        parts.append(Tensor(np.array([w for _, w in mix.solvents] + [0.0] * pad)))
        return ad.concat(parts)
    pairs = [(_embed(params, 0, g, cache), w) for g, w in _canonical(mix.solvents)]
    if cfg.variant == "molsets":
        return aggregate_mixture(params.attention, pairs)
    total = None
    for z, w in pairs:
        term = ad.scale(z, w)
        total = term if total is None else ad.add(total, term)
    return total


def forward(params: ModelParams, mix: MixtureInput, cache: EmbedCache | None = None) -> Tensor:
    """Prediction of any variant as a (1,) tensor (differentiable)."""
    z_mix = mixture_representation(params, mix, cache)
    z_salt = _embed(params, 1, mix.salt, cache)
    return transform_head(params.rho, z_mix, z_salt, mix.molality)


def predict(params: ModelParams, mix: MixtureInput) -> float:
    """Predicted log10 conductivity (S/cm) of the model, whatever its variant."""
    return float(forward(params, mix).data[0])


class GraphStore:
    """Cache of built graphs keyed by (SMILES, molecular-weight override).

    Reusing one graph object per distinct molecule lets embedding caches
    recognize repeats across mixtures.
    """

    def __init__(self):
        self._graphs: dict[tuple[str, float | None], MolecularGraph] = {}

    def get(self, smiles: str, mol_weight_override: float | None = None) -> MolecularGraph:
        key = (smiles, mol_weight_override)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = build_graph(smiles, mol_weight_override)
        return graph


def mixture_from_record(record, store: GraphStore | None = None) -> MixtureInput:
    """Build a MixtureInput from a dataset record (duck-typed: needs
    solvent_smiles, weight_fractions, mol_weight_overrides, salt_smiles,
    molality)."""
    store = store if store is not None else GraphStore()
    overrides = record.mol_weight_overrides or [None] * len(record.solvent_smiles)
    solvents = [
        (store.get(smiles, override), weight)
        for smiles, weight, override in zip(
            record.solvent_smiles, record.weight_fractions, overrides
        )
    ]
    return MixtureInput(
        solvents=solvents,
        salt=store.get(record.salt_smiles),
        molality=record.molality,
    )


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Single JSON document; float arrays round-trip bit-exactly.

    The document is written to `path` + ".tmp" and renamed over `path`,
    so a failed or interrupted save never leaves a partial checkpoint.
    """
    doc = {
        "config": asdict(params.config),
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "params": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in named_parameters(params)
        },
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc["feature_schema_version"]
    if version != FEATURE_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint has feature schema version {version!r}, "
            f"this build reads {FEATURE_SCHEMA_VERSION}"
        )
    config_fields = dict(doc["config"])
    config_fields["rho_hidden_dims"] = tuple(config_fields["rho_hidden_dims"])
    config = ModelConfig(**config_fields)
    params = build_model(config)
    stored = doc["params"]
    named = named_parameters(params)
    unknown = sorted(set(stored) - {name for name, _ in named})
    if unknown:
        raise ValueError(f"checkpoint has unknown parameters {unknown}")
    for name, tensor in named:
        if name not in stored:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        entry = stored[name]
        values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        if values.shape != tensor.data.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {values.shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = values
    return params
