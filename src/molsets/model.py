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
in one GNN pass per pathway (`embed_unions`): they are packed, in the
batch's graph order, into disjoint-union graphs of at most a few hundred
atoms, each conv layer runs once per union, each molecule's node rows
are mean pooled by a segment sum, and the readout runs on one row per
molecule. Each distinct solvent set is aggregated once, with a fixed
number of tape nodes per batch: molsets gathers the slot rows by index
and runs one attention node (`ad.set_attention`: q/k/v products, segment
softmax and weighted segment sum), wsum gathers the rows and sums them
weighted by weight fraction (`ad.segment_sum`), and concat gathers a
padded block of rows per set. The head then runs on the gathered set and
salt rows of the mixtures, in blocks of bounded size. A list of mixtures
(`forward_batch`) is the batch in which each mixture is its own set; a
single mixture is a batch of one (`forward`, `predict`). Screening
builds its batch directly, so candidates that share a solvent set share
its aggregation.

A batch keeps its unions (`MixtureBatch.unions`, one `GraphTensors` each,
with its stacked node features, log masses and operators): they are
built on first use and reused by every later forward. Training
builds one batch per dataset and slices it per step
(`MixtureBatch.take`); a slice keeps the dataset's graph order, so one
that holds all of a pathway's graphs gets the dataset batch's own
unions, built at most once per batch (`train` logs them as built by the
step whose `take` builds them and as reused at every later hand-over).
Everywhere else graphs are numbered in first-seen order.

Solvents are sorted by their source SMILES before aggregation so that
repeated evaluations are bit-identical; the aggregation itself is a set
operation, so any input order yields the same value up to floating-point
roundoff.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chem import MolecularGraph, NODE_FEATURE_DIM, build_graph
from .data import check_integer, composition_error
from .gnn import (
    CONV_KINDS,
    ConvParams,
    DenseParams,
    GraphTensors,
    conv_forward,
    conv_shapes,
    mean_pool,
)

FEATURE_SCHEMA_VERSION = 1
CHECKPOINT_TEMP_SUFFIX = ".tmp"
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

# Most learnable values (80 MB of float64) a config may ask for; a larger
# one is refused before any array is allocated.
_MAX_PARAMETERS = 10_000_000


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
        for name in _SIZE_FIELDS:
            check_integer(name, getattr(self, name), 1)
        for d in self.rho_hidden_dims:
            check_integer("rho_hidden_dims", d, 1)
        check_integer("seed", self.seed, 0)
        # Python ints, so that sizes cannot overflow and checkpoints serialize.
        for name in (*_SIZE_FIELDS, "seed"):
            setattr(self, name, int(getattr(self, name)))
        self.rho_hidden_dims = tuple(map(int, self.rho_hidden_dims))
        count = 0
        for _, shape, _ in parameter_layout(self):
            count += math.prod(shape)
            if count > _MAX_PARAMETERS:
                raise ValueError(
                    f"model would have at least {count} parameters, "
                    f"more than the {_MAX_PARAMETERS} allowed"
                )

    @classmethod
    def for_conv(cls, conv: str, variant: str = "molsets", seed: int = 0, **overrides) -> "ModelConfig":
        """Config with the tuned defaults for the given convolution operator."""
        # An unknown kind gets graphconv's values here, and cls refuses it.
        layers, hidden, repr_dim, att = DEFAULT_HPARAMS.get(conv, DEFAULT_HPARAMS["graphconv"])
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
        s, r = self.max_solvents, self.representation_dim
        return s * r + s + r + 1 if self.variant == "concat" else 2 * r + 1


def parameter_layout(config: ModelConfig):
    """Yield (name, shape, drawn) for every learnable tensor of the model,
    in the order of its parameter vector: each pathway's convs (conv_shapes)
    and readout, the attention, then the dense head. A drawn tensor is a
    weight initialized from U(+-1/sqrt(shape[0])); the others are biases,
    initialized to zero. A generator, so that a caller may stop early."""
    h, r = config.hidden_dim, config.representation_dim
    for prefix in ("phi_solvent", "phi_salt"):
        for idx, dim in enumerate(_conv_inputs(config)):
            for name, shape in conv_shapes(config.conv, dim, h):
                yield f"{prefix}.conv{idx}.{name}", shape, True
        yield f"{prefix}.readout.w", (h + 1, r), True
        yield f"{prefix}.readout.b", (r,), False
    if config.variant == "molsets":
        yield "attention.wq", (r, config.attention_dim), True
        yield "attention.wk", (r, config.attention_dim), True
        yield "attention.wv", (r, r), True
    dims = [config.rho_input_dim(), *config.rho_hidden_dims, 1]
    for idx, (fan_in, width) in enumerate(zip(dims, dims[1:])):
        yield f"rho{idx}.w", (fan_in, width), True
        yield f"rho{idx}.b", (width,), False


def _conv_inputs(config: ModelConfig):
    """Input width of each conv layer of a pathway (an iterator, however
    many layers)."""
    more = 0 if config.conv == "dmpnn" else config.num_layers - 1
    return itertools.chain([NODE_FEATURE_DIM], itertools.repeat(config.hidden_dim, more))


@dataclass
class MixtureInput:
    """An unordered solvent set with weight fractions, one salt, and molality."""

    solvents: list[tuple[MolecularGraph, float]]
    salt: MolecularGraph
    molality: float

    def __post_init__(self):
        if not self.solvents:
            raise ValueError("a mixture needs at least one solvent")
        error = composition_error([w for _, w in self.solvents], self.molality)
        if error is not None:
            raise ValueError(error)


@dataclass
class GnnParams:
    convs: list[ConvParams]
    readout: DenseParams


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor


@dataclass
class ModelParams:
    """The parameters of a model. `values` holds them all in one float64
    vector, in parameter_layout order, and `tensors` views each one's slice
    of it in that order; the pathways, attention and head hold those same
    tensors. Write parameters in place (`tensor.data[...] = ...`): a tensor
    whose data is rebound no longer views `values`, which AdamW steps."""

    config: ModelConfig
    phi_solvent: GnnParams
    phi_salt: GnnParams
    attention: AttentionParams | None
    rho: list[DenseParams]
    values: np.ndarray = field(repr=False)
    tensors: list[Tensor] = field(repr=False)


def _zero_model(config: ModelConfig) -> ModelParams:
    """The model of config with every parameter zero, in one new vector."""
    shapes = [shape for _, shape, _ in parameter_layout(config)]
    sizes = [math.prod(shape) for shape in shapes]
    values = np.zeros(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    tensors = [Tensor(values[lo : lo + n].reshape(shape)) for shape, n, lo in zip(shapes, sizes, starts)]
    views = iter(tensors)  # handed out in parameter_layout order
    kind, h = config.conv, config.hidden_dim

    def pathway() -> GnnParams:
        convs = [
            ConvParams(kind, **{name: next(views) for name, _ in conv_shapes(kind, dim, h)})
            for dim in _conv_inputs(config)
        ]
        if kind == "dmpnn":  # its one layer (_conv_inputs) runs num_layers iterations
            convs[0].iterations = config.num_layers
        return GnnParams(convs, DenseParams(next(views), next(views)))

    phi_solvent, phi_salt = pathway(), pathway()
    attention = None
    if config.variant == "molsets":
        attention = AttentionParams(next(views), next(views), next(views))
    rho = [DenseParams(next(views), next(views)) for _ in range(len(config.rho_hidden_dims) + 1)]
    return ModelParams(config, phi_solvent, phi_salt, attention, rho, values, tensors)


def build_model(config: ModelConfig) -> ModelParams:
    """Freshly initialized parameters for the configured variant: one
    generator seeded by config.seed draws each weight of parameter_layout
    in order; the biases stay zero."""
    params = _zero_model(config)
    rng = np.random.default_rng(config.seed)
    for (_, shape, drawn), tensor in zip(parameter_layout(config), params.tensors):
        if drawn:
            tensor.data[...] = rng.uniform(-1 / math.sqrt(shape[0]), 1 / math.sqrt(shape[0]), shape)
    return params


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """All learnable tensors keyed by layer path, in parameter_layout order."""
    names = [name for name, _, _ in parameter_layout(params.config)]
    return list(zip(names, params.tensors))


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


def _pack(graphs: list[MolecularGraph]) -> list[GraphTensors]:
    """The graphs' disjoint unions (_unions), each one GraphTensors."""
    for graph in graphs:
        if graph.node_features.shape[1] != NODE_FEATURE_DIM:
            raise ad.DimensionError(
                f"graph features have dim {graph.node_features.shape[1]}, "
                f"expected {NODE_FEATURE_DIM}"
            )
    return [GraphTensors(union) for union in _unions(graphs)]


def _embed_union(phi: GnnParams, gt: GraphTensors) -> Tensor:
    x = Tensor(gt.features)
    for idx, conv in enumerate(phi.convs):
        x = conv_forward(conv, x, gt, relu=idx < len(phi.convs) - 1)
    with_mass = ad.concat([mean_pool(x, gt), Tensor(gt.log_mass)], axis=1)
    return ad.affine(with_mass, phi.readout.w, phi.readout.b)


def embed_unions(phi: GnnParams, unions: list[GraphTensors]) -> Tensor:
    """Molecule representations of one pathway, one row per member graph
    of the unions in order, (G, d): conv stack, mean pool, concat log M,
    dense; one pass per disjoint union."""
    tables = [_embed_union(phi, gt) for gt in unions]
    return tables[0] if len(tables) == 1 else ad.concat(tables)


def aggregate_mixture(
    attention: AttentionParams, z: Tensor, weights, segment, n_sets: int
) -> Tensor:
    """Attention-weighted aggregation of a batch of molecule sets.

    Row i of z (N, d) belongs to set segment[i] with weight fraction
    weights[i]. Each row gets a scalar logit q.k / sqrt(d_k), d_k the
    columns of attention.wq; a softmax
    within its set scales its value vector, and each set sums its scaled
    values weighted by weight fraction. Returns (n_sets, d); every row is
    independent of the order of its set's members (up to float roundoff).
    One tape node (`ad.set_attention`).
    """
    seg = np.asarray(segment, dtype=np.intp)
    if n_sets < 1 or np.bincount(seg, minlength=n_sets).min() < 1:
        raise ValueError("cannot aggregate an empty mixture set")
    return ad.set_attention(z, attention.wq, attention.wk, attention.wv, weights, seg, n_sets)


def transform_head(rho: list[DenseParams], z_solvent: Tensor, z_salt: Tensor, molality) -> Tensor:
    """Dense stack on the rows [solvent repr, salt repr, molality] of a
    batch: z_solvent (B, D), z_salt (B, d), molality (B,); returns (B,)."""
    m = np.asarray(molality, dtype=np.float64).reshape(-1, 1)
    h = ad.concat([z_solvent, z_salt, Tensor(m)], axis=1)
    for layer in rho[:-1]:
        h = ad.affine(h, layer.w, layer.b, relu=True)
    return ad.reshape(ad.affine(h, rho[-1].w, rho[-1].b), (m.shape[0],))


@dataclass
class MixtureBatch:
    """A batch of mixtures as index arrays over distinct molecules and
    distinct solvent sets.

    solvent_graphs and salt_graphs hold each pathway's distinct graphs in
    the order they are embedded. Solvent set s is the next set_sizes[s]
    slots (sets follow each other in order); slot k is the solvent graph
    slot_graph[k] at weight fraction slot_weight[k]. Mixture i is solvent
    set set_of[i] with salt graph salt_of[i] at molality[i].

    unions maps a pathway ("solvent", "salt") to its graphs packed into
    disjoint unions (GraphTensors, with their operators); each is built on
    first use (packed) and kept with the batch.
    """

    solvent_graphs: list[MolecularGraph]
    salt_graphs: list[MolecularGraph]
    slot_graph: np.ndarray
    slot_weight: np.ndarray
    set_sizes: np.ndarray
    set_of: np.ndarray
    salt_of: np.ndarray
    molality: np.ndarray
    unions: dict[str, list[GraphTensors]] = field(default_factory=dict, init=False, repr=False)

    def packed(self, pathway: str) -> list[GraphTensors]:
        """The unions of the "solvent" or "salt" pathway, built on first use."""
        unions = self.unions.get(pathway)
        if unions is None:
            graphs = self.solvent_graphs if pathway == "solvent" else self.salt_graphs
            unions = self.unions[pathway] = _pack(graphs)
        return unions

    def take(self, rows) -> "MixtureBatch":
        """Mixtures rows (repeats allowed) of a batch in which each mixture
        is its own set, as a batch of their own.

        The slice keeps this batch's graph order: the graphs it uses are
        renumbered by a presence mask and its cumsum. A pathway whose graphs
        are all of this batch's has this batch's graph list, so it gets this
        batch's unions (packed, built on first use); any other pathway
        builds its own. The result depends only on this batch and rows.
        """
        rows = np.asarray(rows, dtype=np.intp)
        n = self.set_of.size
        if self.set_sizes.size != n or not np.array_equal(self.set_of, np.arange(n)):
            raise ValueError("take slices a batch in which each mixture is its own set")
        if rows.size < 1:
            raise ValueError("take needs at least one row")
        sizes = self.set_sizes[rows]
        ends = np.cumsum(sizes)
        slots = np.arange(ends[-1]) + np.repeat(np.cumsum(self.set_sizes)[rows] - ends, sizes)
        solvents, slot_graph = _renumber(self.slot_graph[slots], len(self.solvent_graphs))
        salts, salt_of = _renumber(self.salt_of[rows], len(self.salt_graphs))
        piece = MixtureBatch(
            solvent_graphs=[self.solvent_graphs[i] for i in solvents.tolist()],
            salt_graphs=[self.salt_graphs[i] for i in salts.tolist()],
            slot_graph=slot_graph,
            slot_weight=self.slot_weight[slots],
            set_sizes=sizes,
            set_of=np.arange(rows.size),
            salt_of=salt_of,
            molality=self.molality[rows],
        )
        for pathway, kept, graphs in (
            ("solvent", solvents, self.solvent_graphs),
            ("salt", salts, self.salt_graphs),
        ):
            if kept.size == len(graphs):
                piece.unions[pathway] = self.packed(pathway)
        return piece


def _renumber(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct values of ids in increasing order, ids renumbered
    0.. in that order) for ids in [0, count), without a sort."""
    present = np.zeros(count, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _canonical(solvents: list[tuple[MolecularGraph, float]]):
    return sorted(solvents, key=lambda gw: gw[0].source_smiles)


def batch_of(params: ModelParams, mixes: list[MixtureInput]) -> MixtureBatch:
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
    embedded in one pass over the batch's solvent unions. Every forward
    path comes through here, so this is where a batch with no mixture, an
    empty solvent set or more than max_solvents members is refused.

    molsets: attention aggregation of each set's slots. wsum:
    weight-fraction-weighted sum of their embeddings. concat: the
    embeddings in slot order, zero padding up to max_solvents, then the
    padded weight fractions (deliberately not permutation invariant).
    """
    cfg = params.config
    sizes = batch.set_sizes
    n_sets = sizes.size
    if n_sets == 0:
        raise ValueError("a forward pass needs at least one mixture")
    if sizes.min() < 1:
        raise ValueError("cannot aggregate an empty mixture set")
    if sizes.max() > cfg.max_solvents:
        raise ValueError(
            f"mixture has {sizes.max()} solvents, model accepts at most {cfg.max_solvents}"
        )
    solvents = embed_unions(params.phi_solvent, batch.packed("solvent"))
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
    return ad.segment_sum(z, segment, n_sets, batch.slot_weight)


def mixture_representation(params: ModelParams, mixes: list[MixtureInput]) -> Tensor:
    """Solvent part of the head input of each mixture, (B, D)."""
    return _set_representation(params, batch_of(params, mixes))


def forward_columns(params: ModelParams, batch: MixtureBatch) -> Tensor:
    """Predictions of a columnar batch as a (B,) tensor (differentiable).

    Each pathway's distinct graphs are embedded in one pass over the
    batch's unions (MixtureBatch.packed) and each distinct solvent set is
    aggregated once; the head then runs on the gathered [set, salt,
    molality] rows of the mixtures in blocks of about _CHUNK rows, so its
    working memory does not grow with B.
    """
    z_set = _set_representation(params, batch)
    salts = embed_unions(params.phi_salt, batch.packed("salt"))
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
    forward_columns with each mixture as its own solvent set. An empty
    batch is refused by _set_representation, as on every forward path."""
    return forward_columns(params, batch_of(params, mixes))


def forward(params: ModelParams, mix: MixtureInput) -> Tensor:
    """Prediction of one mixture as a (1,) tensor (differentiable)."""
    return forward_batch(params, [mix])


def predict(params: ModelParams, mix: MixtureInput) -> float:
    """Predicted log10 conductivity (S/cm) of the model, whatever its variant."""
    return float(forward(params, mix).data[0])


class GraphStore:
    """Cache of built graphs keyed by (SMILES, molecular-weight override).

    Reusing one graph object per distinct molecule lets a batch embed it
    once however many mixtures contain it. Only built graphs are kept: a
    key that failed to build is parsed again, and fails again, at its next
    get.
    """

    def __init__(self):
        self._graphs: dict[tuple[str, float | None], MolecularGraph] = {}

    def get(self, smiles: str, mol_weight_override: float | None = None) -> MolecularGraph:
        key = (smiles, mol_weight_override)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = build_graph(smiles, mol_weight_override)
        return graph


def mixture_from_record(record, store: GraphStore) -> MixtureInput:
    """Build a MixtureInput from a dataset record (duck-typed: needs
    solvent_smiles, weight_fractions, mol_weight_overrides, salt_smiles,
    molality), its graphs taken from `store`."""
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
    """Write `params` as one JSON document; float arrays round-trip bit-exactly.

    The document holds `config` (the `ModelConfig` fields),
    `feature_schema_version` and `params`, which maps each parameter name
    to `{"shape": [...], "float64": "<base64>"}`: the base64 of the
    array's float64 values as little-endian bytes in C order.

    It is written to `path` + CHECKPOINT_TEMP_SUFFIX, then renamed over
    `path`, so a failed or interrupted save never leaves a partial checkpoint.
    """
    doc = {
        "config": asdict(params.config),
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "params": {
            name: {
                "shape": list(t.data.shape),
                "float64": base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, t in named_parameters(params)
        },
    }
    tmp = f"{path}{CHECKPOINT_TEMP_SUFFIX}"
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
    """Read a checkpoint written by `save_checkpoint` into a new model.

    Each parameter is decoded from its base64 little-endian float64 bytes
    into its slice of the model's new parameter vector; a load draws no
    random numbers. Raises ValueError when the document is not a
    checkpoint of this feature schema version, its config is invalid, a
    parameter is unknown or missing, or an entry is not `{"shape",
    "float64"}` with the shape of parameter_layout, as a list of ints, and
    a base64 string of that many finite values.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    params = _zero_model(ModelConfig(**doc["config"]))
    stored = doc["params"]
    named = named_parameters(params)
    unknown = sorted(set(stored) - {name for name, _ in named})
    if unknown:
        raise ValueError(f"checkpoint has unknown parameters {unknown}")
    for name, tensor in named:
        if name not in stored:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        entry = stored[name]
        if not isinstance(entry, dict) or set(entry) != {"shape", "float64"}:
            raise ValueError(
                f"checkpoint parameter {name!r} must be an object with 'shape' and 'float64'"
            )
        stored_shape = entry["shape"]
        # Each entry's type is checked too: in Python, True == 1 and 2.0 == 2.
        if not (
            isinstance(stored_shape, list)
            and all(type(d) is int for d in stored_shape)
            and tuple(stored_shape) == tensor.data.shape
        ):
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {stored_shape!r}, "
                f"expected {list(tensor.data.shape)}"
            )
        if not isinstance(entry["float64"], str):
            raise ValueError(f"checkpoint parameter {name!r} must hold a base64 string")
        try:
            raw = base64.b64decode(entry["float64"], validate=True)
            values = np.frombuffer(raw, "<f8").reshape(tensor.data.shape)
        except ValueError as exc:
            raise ValueError(f"checkpoint parameter {name!r} is malformed: {exc}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"checkpoint parameter {name!r} has non-finite values")
        tensor.data[...] = values
    return params
