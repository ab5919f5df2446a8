"""Permutation-invariant deep-sets modeling of molecular mixtures.

Molecules are parsed from a SMILES subset into featurized graphs, a
graph neural network embeds each molecule, an attention-weighted set
aggregation combines the solvent embeddings, and a dense head maps the
mixture representation (plus the salt embedding and molality) to log10
conductivity. The package also ships the training protocol, Arrhenius
preprocessing, correlation metrics, ablation variants, and combinatorial
virtual screening.
"""

from .autodiff import Tape, Tensor, backward, finite_diff_gradient
from .chem import FeaturizationError, MolecularGraph, SmilesParseError, build_graph
from .data import (
    ArrheniusFit,
    ConductivityPoint,
    DataError,
    MixtureRecord,
    arrhenius_fit,
    conductivity_at_298K,
    generate_synthetic,
    load_dataset,
    split_dataset,
    write_dataset,
)
from .gnn import ConvParams, DenseParams, GraphTensors, conv_forward
from .model import (
    AttentionParams,
    MixtureBatch,
    MixtureInput,
    ModelConfig,
    ModelParams,
    aggregate_mixture,
    build_model,
    embed_unions,
    forward_batch,
    forward_columns,
    load_checkpoint,
    mixture_from_record,
    mixture_representation,
    predict,
    save_checkpoint,
    transform_head,
)
from .screening import (
    CandidateSpec,
    CandidateTable,
    ScreeningResult,
    enumerate_binary_candidates,
    permute_mixture,
    run_screening,
)
from .training import (
    AdamW,
    MetricsReport,
    TrainConfig,
    evaluate,
    pearson,
    spearman,
    train,
)

__version__ = "0.1.0"
