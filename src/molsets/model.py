"""The mixture conductivity predictor and its ablation variants.

The full model is a dual-pathway deep-sets architecture: a per-molecule
graph-network embedding (one pathway for solvents, one for the salt), an
attention-weighted set aggregation over the solvent embeddings, and a
dense head on [solvent mixture representation, salt representation,
molality]. Two ablations share the embedding pathway: a plain weighted
sum in place of attention (still permutation invariant), and a
concatenate-and-pad variant that is deliberately order-sensitive.

There is one forward pass, over a columnar batch (`MixtureBatch`,
`forward_columns`): each pathway's distinct molecules, the distinct
solvent sets as slots (graph row, weight fraction), and per mixture a
set row, a salt row and a molality. The distinct molecules are embedded
in one GNN pass per pathway: they are packed, in first-seen order, into
disjoint-union graphs of at most a few hundred atoms, each conv layer
runs once per union, each molecule's node rows are mean pooled by a
segment sum, and the readout runs on one row per molecule. Each distinct
solvent set is aggregated once, with a fixed number of array operations
per batch: gather rows by index, segment softmax, segment sum (concat
instead gathers a padded block of rows per set). The head then runs on
the gathered set and salt rows of the mixtures, in blocks of bounded
size. A list of mixtures (`forward_batch`) is the batch in which each
mixture is its own set; a single mixture is a batch of one (`forward`,
`predict`). Screening builds its batch directly, so candidates that
share a solvent set share its aggregation.

Solvents are sorted by their source SMILES before aggregation so that
repeated evaluations are bit-identical; the aggregation itself is a set
operation, so any input order yields the same value up to floating-point
roundoff.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chem import (
    FeaturizationError,
    MolecularGraph,
    NODE_FEATURE_DIM,
    SmilesParseError,
    build_graph,
)
from .gnn import (
    CONV_KINDS,
    ConvParams,
    DenseParams,
    GraphTensors,
    conv_forward,
    conv_param_tensors,
    dense_forward,
    dmpnn_forward,
    init_conv,
    init_dense,
    mean_pool,
)

FEATURE_SCHEMA_VERSION = 1
_CHECKPOINT_KEYS = frozenset({"config", "feature_schema_version", "params"})

# Mixture rows per transform_head call. Blocks start at multiples of
# _CHUNK, which keeps each row's BLAS tiling, and so its rounding, that of
# one product over the whole batch; a one-row product takes another BLAS
# path, so a last block of one row joins the block before it.
_CHUNK = 512

# Most atoms in one disjoint-union graph. Graphconv, sageconv, gcnconv and
# GAT build an n x n (GAT: n x 2n) operator per union, so this bounds
# their memory however many molecules a forward embeds.
_UNION_ATOMS = 192

VARIANTS = ("molsets", "wsum", "concat")

# conv kind -> (num_layers, hidden_dim, representation_dim, attention_dim)
DEFAULT_HPARAMS = {
    "sageconv": (3, 32, 16, 8),
    "graphconv": (3, 16, 32, 16),
    "gcnconv": (3, 16, 16, 8),
    "gatconv": (2, 16, 32, 8),
    "dmpnn": (3, 32, 16, 16),
}


_SIZE_FIELDS = ("num_layers", "hidden_dim", "representation_dim", "attention_dim", "max_solvents")


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
        if not isinstance(self.rho_hidden_dims, (list, tuple)):
            raise ValueError(f"rho_hidden_dims must be a list, got {self.rho_hidden_dims!r}")
        self.rho_hidden_dims = tuple(self.rho_hidden_dims)
        checks = [(name, getattr(self, name), 1) for name in _SIZE_FIELDS]
        checks += [("rho_hidden_dims", d, 1) for d in self.rho_hidden_dims]
        for name, value, least in checks + [("seed", self.seed, 0)]:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

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


def _unions(graphs: list[MolecularGraph]) -> list[list[MolecularGraph]]:
    """Graphs packed greedily, in order, into runs of at most _UNION_ATOMS
    atoms; a larger graph forms a union of its own."""
    unions: list[list[MolecularGraph]] = []
    atoms = _UNION_ATOMS
    for graph in graphs:
        if atoms + graph.n_nodes > _UNION_ATOMS:
            unions.append([])
            atoms = 0
        unions[-1].append(graph)
        atoms += graph.n_nodes
    return unions


def _embed_union(phi: GnnParams, graphs: list[MolecularGraph]) -> Tensor:
    gt = GraphTensors(graphs)
    x = Tensor(np.concatenate([g.node_features for g in graphs]))
    convs = phi.convs
    if convs[0].kind == "dmpnn":
        x = dmpnn_forward(convs[0], x, gt, iterations=phi.num_layers)
    else:
        for idx, conv in enumerate(convs):
            x = conv_forward(conv, x, gt, relu=idx < len(convs) - 1)
    log_mass = Tensor(np.array([[g.log_mol_weight] for g in graphs]))
    return dense_forward(phi.readout, ad.concat([mean_pool(x, gt), log_mass], axis=1))


def embed_graphs(phi: GnnParams, graphs: list[MolecularGraph]) -> Tensor:
    """Molecule representations, one row per graph, (G, d): conv stack,
    mean pool, concat log M, dense; one pass per disjoint union."""
    for graph in graphs:
        if graph.node_features.shape[1] != NODE_FEATURE_DIM:
            raise ad.DimensionError(
                f"graph features have dim {graph.node_features.shape[1]}, "
                f"expected {NODE_FEATURE_DIM}"
            )
    tables = [_embed_union(phi, union) for union in _unions(graphs)]
    return tables[0] if len(tables) == 1 else ad.concat(tables)


def embed_molecule(phi: GnnParams, graph: MolecularGraph) -> Tensor:
    """Representation of one molecule, (d,): embed_graphs of one graph."""
    row = embed_graphs(phi, [graph])
    return ad.reshape(row, (row.data.shape[1],))


def aggregate_mixture(
    attention: AttentionParams, z: Tensor, weights, segment, n_sets: int
) -> Tensor:
    """Attention-weighted aggregation of a batch of molecule sets.

    Row i of z (N, d) belongs to set segment[i] with weight fraction
    weights[i]. Each row gets a scalar logit q.k / sqrt(d_k); a softmax
    within its set scales its value vector, and each set sums its scaled
    values weighted by weight fraction. Returns (n_sets, d); every row is
    independent of the order of its set's members (up to float roundoff).
    """
    seg = np.asarray(segment, dtype=np.intp)
    if n_sets < 1 or np.bincount(seg, minlength=n_sets).min() < 1:
        raise ValueError("cannot aggregate an empty mixture set")
    n = seg.size
    q = ad.matmul(z, attention.wq)
    k = ad.matmul(z, attention.wk)
    v = ad.matmul(z, attention.wv)
    logits = ad.scale(ad.reduce_sum(ad.mul(q, k), axis=1), 1.0 / math.sqrt(attention.d_k))
    scores = ad.reshape(ad.segment_softmax(logits, seg, n_sets), (n, 1))
    weighted = ad.mul(ad.mul(v, scores), Tensor(np.reshape(weights, (n, 1))))
    return ad.segment_sum(weighted, seg, n_sets)


def transform_head(rho: list[DenseParams], z_solvent: Tensor, z_salt: Tensor, molality) -> Tensor:
    """Dense stack on the rows [solvent repr, salt repr, molality] of a
    batch: z_solvent (B, D), z_salt (B, d), molality (B,); returns (B,)."""
    m = np.asarray(molality, dtype=np.float64).reshape(-1, 1)
    h = ad.concat([z_solvent, z_salt, Tensor(m)], axis=1)
    for layer in rho[:-1]:
        h = dense_forward(layer, h, "relu")
    return ad.reshape(dense_forward(rho[-1], h), (m.shape[0],))


@dataclass
class MixtureBatch:
    """A batch of mixtures as index arrays over distinct molecules and
    distinct solvent sets.

    solvent_graphs and salt_graphs hold each pathway's distinct graphs in
    the order they are embedded. Solvent set s is the next set_sizes[s]
    slots (sets follow each other in order); slot k is the solvent graph
    slot_graph[k] at weight fraction slot_weight[k]. Mixture i is solvent
    set set_of[i] with salt graph salt_of[i] at molality[i].
    """

    solvent_graphs: list[MolecularGraph]
    salt_graphs: list[MolecularGraph]
    slot_graph: np.ndarray
    slot_weight: np.ndarray
    set_sizes: np.ndarray
    set_of: np.ndarray
    salt_of: np.ndarray
    molality: np.ndarray


def _canonical(solvents: list[tuple[MolecularGraph, float]]):
    return sorted(solvents, key=lambda gw: gw[0].source_smiles)


def _batch_of(params: ModelParams, mixes: list[MixtureInput]) -> MixtureBatch:
    """Each mixture as its own solvent set (canonically sorted unless the
    variant is concat); graphs are numbered in first-seen order."""
    sets = [
        mix.solvents if params.config.variant == "concat" else _canonical(mix.solvents)
        for mix in mixes
    ]
    solvent_row: dict[MolecularGraph, int] = {}
    salt_row: dict[MolecularGraph, int] = {}
    slot_graph = [solvent_row.setdefault(g, len(solvent_row)) for gws in sets for g, _ in gws]
    salt_of = [salt_row.setdefault(mix.salt, len(salt_row)) for mix in mixes]
    return MixtureBatch(
        solvent_graphs=list(solvent_row),
        salt_graphs=list(salt_row),
        slot_graph=np.array(slot_graph, dtype=np.intp),
        slot_weight=np.array([w for gws in sets for _, w in gws], dtype=np.float64),
        set_sizes=np.array([len(gws) for gws in sets], dtype=np.intp),
        set_of=np.arange(len(mixes)),
        salt_of=np.array(salt_of, dtype=np.intp),
        molality=np.array([mix.molality for mix in mixes], dtype=np.float64),
    )


def _set_representation(params: ModelParams, batch: MixtureBatch) -> Tensor:
    """Solvent part of the head input, one row per solvent set, (S, D):
    the only place each variant differs. The distinct solvent graphs are
    embedded in one embed_graphs call.

    molsets: attention aggregation of each set's slots. wsum:
    weight-fraction-weighted sum of their embeddings. concat: the
    embeddings in slot order, zero padding up to max_solvents, then the
    padded weight fractions (deliberately not permutation invariant).
    """
    cfg = params.config
    sizes = batch.set_sizes
    n_sets = sizes.size
    if sizes.max() > cfg.max_solvents:
        raise ValueError(
            f"mixture has {sizes.max()} solvents, model accepts at most {cfg.max_solvents}"
        )
    solvents = embed_graphs(params.phi_solvent, batch.solvent_graphs)
    if cfg.variant == "concat":
        slots = cfg.max_solvents
        table = ad.concat([solvents, Tensor(np.zeros((1, cfg.representation_dim)))])
        filled = np.arange(slots) < sizes[:, None]
        rows = np.full((n_sets, slots), table.data.shape[0] - 1, dtype=np.intp)
        rows[filled] = batch.slot_graph
        weights = np.zeros((n_sets, slots))
        weights[filled] = batch.slot_weight
        z = ad.reshape(ad.rows(table, rows.reshape(-1)), (n_sets, slots * cfg.representation_dim))
        return ad.concat([z, Tensor(weights)], axis=1)
    segment = np.repeat(np.arange(n_sets), sizes)
    z = ad.rows(solvents, batch.slot_graph)
    if cfg.variant == "molsets":
        return aggregate_mixture(params.attention, z, batch.slot_weight, segment, n_sets)
    return ad.segment_sum(ad.mul(z, Tensor(batch.slot_weight[:, None])), segment, n_sets)


def mixture_representation(params: ModelParams, mixes: list[MixtureInput]) -> Tensor:
    """Solvent part of the head input of each mixture, (B, D)."""
    return _set_representation(params, _batch_of(params, mixes))


def forward_columns(params: ModelParams, batch: MixtureBatch) -> Tensor:
    """Predictions of a columnar batch as a (B,) tensor (differentiable).

    Each pathway's distinct graphs are embedded in one embed_graphs call
    and each distinct solvent set is aggregated once; the head then runs
    on the gathered [set, salt, molality] rows of the mixtures in blocks
    of about _CHUNK rows, so its working memory does not grow with B.
    """
    z_set = _set_representation(params, batch)
    salts = embed_graphs(params.phi_salt, batch.salt_graphs)
    n = batch.set_of.size
    starts = (list(range(0, n - 1, _CHUNK)) or [0]) + [n]
    blocks = [
        transform_head(
            params.rho,
            ad.rows(z_set, batch.set_of[lo:hi]),
            ad.rows(salts, batch.salt_of[lo:hi]),
            batch.molality[lo:hi],
        )
        for lo, hi in zip(starts, starts[1:])
    ]
    return blocks[0] if len(blocks) == 1 else ad.concat(blocks)


def forward_batch(params: ModelParams, mixes: list[MixtureInput]) -> Tensor:
    """Predictions of a batch of mixtures as a (B,) tensor (differentiable):
    forward_columns with each mixture as its own solvent set."""
    if not mixes:
        raise ValueError("forward_batch needs at least one mixture")
    return forward_columns(params, _batch_of(params, mixes))


def forward(params: ModelParams, mix: MixtureInput) -> Tensor:
    """Prediction of one mixture as a (1,) tensor (differentiable)."""
    return forward_batch(params, [mix])


def predict(params: ModelParams, mix: MixtureInput) -> float:
    """Predicted log10 conductivity (S/cm) of the model, whatever its variant."""
    return float(forward(params, mix).data[0])


class GraphStore:
    """Cache of built graphs keyed by (SMILES, molecular-weight override).

    Reusing one graph object per distinct molecule lets a batch embed it
    once however many mixtures contain it. A key that failed to build keeps
    its exception, which every later get of that key raises again.
    """

    def __init__(self):
        self._graphs: dict[tuple[str, float | None], MolecularGraph] = {}
        self._failures: dict[tuple[str, float | None], ValueError] = {}

    def get(self, smiles: str, mol_weight_override: float | None = None) -> MolecularGraph:
        key = (smiles, mol_weight_override)
        graph = self._graphs.get(key)
        if graph is None:
            failure = self._failures.get(key)
            if failure is not None:
                raise failure.with_traceback(None)
            try:
                graph = self._graphs[key] = build_graph(smiles, mol_weight_override)
            except (SmilesParseError, FeaturizationError) as exc:
                self._failures[key] = exc
                raise
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
    if not isinstance(doc, dict) or set(doc) != _CHECKPOINT_KEYS:
        raise ValueError(
            f"{path} is not a checkpoint: expected a JSON object with keys {sorted(_CHECKPOINT_KEYS)}"
        )
    version = doc["feature_schema_version"]
    if version != FEATURE_SCHEMA_VERSION:
        raise ValueError(
            f"checkpoint has feature schema version {version!r}, "
            f"this build reads {FEATURE_SCHEMA_VERSION}"
        )
    if not isinstance(doc["config"], dict) or not isinstance(doc["params"], dict):
        raise ValueError("checkpoint 'config' and 'params' must be JSON objects")
    config_keys = {f.name for f in fields(ModelConfig)}
    if set(doc["config"]) != config_keys:
        raise ValueError(
            f"checkpoint config has unknown keys {sorted(set(doc['config']) - config_keys)} "
            f"and lacks keys {sorted(config_keys - set(doc['config']))}"
        )
    params = build_model(ModelConfig(**doc["config"]))
    stored = doc["params"]
    named = named_parameters(params)
    unknown = sorted(set(stored) - {name for name, _ in named})
    if unknown:
        raise ValueError(f"checkpoint has unknown parameters {unknown}")
    for name, tensor in named:
        if name not in stored:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        entry = stored[name]
        if not isinstance(entry, dict) or set(entry) != {"shape", "values"}:
            raise ValueError(
                f"checkpoint parameter {name!r} must be an object with 'shape' and 'values'"
            )
        try:
            values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        except TypeError as exc:
            raise ValueError(f"checkpoint parameter {name!r} is malformed: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"checkpoint parameter {name!r} has non-finite values")
        if values.shape != tensor.data.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {values.shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = values
    return params
