"""Distributional models of verb argument expectations.

Builds sparse (target, relation, filler) co-occurrence tensors from
dependency-parsed corpora, weights them with positive local mutual
information, and evaluates structured (DEPS), bag-of-arguments (BOA),
and bag-of-words (BOW) expectation models on binary-selection tasks.
"""

from .conll import ColumnConfig, DependencyArc, ParseStats, SentenceRecord, parse_conll_file
from .config import PipelineConfig, config_hash, load_config
from .corpus import (
    Vocabulary,
    build_vocabulary,
    extract_dependency_counts,
    extract_window_counts,
)
from .datasets import BicknellItem, BicknellMode, ChowItem, load_bicknell, load_chow
from .errors import (
    ArgexError,
    ConfigError,
    ConsistencyError,
    CorpusError,
    DatasetError,
    EmptyPrototypeError,
    OutOfVocabularyError,
    SpaceMismatchError,
    StaleArtifactError,
    UndefinedModelError,
)
from .evaluation import (
    EvalPair,
    EvalReport,
    Outcome,
    k_sweep,
    run_bicknell,
    run_chow,
)
from .expectation import (
    Composition,
    ModelVariant,
    Prototype,
    SlotQuery,
    VariantKind,
    build_prototype,
    compose,
    expectation_update,
    score_filler,
)
from .space import (
    SparseVector,
    WeightedSpace,
    build_space,
    cosine,
    load_space,
    save_space,
    top_k_fillers,
    vector_of,
)
from .stats import chi_square_vs_chance, wilcoxon_rank_sum
from .tensor import CooccurrenceTensor
from .tokens import Token, parse_canonical
from .weighting import WeightedTensor, collapse_relations, lmi, weight_tensor

__version__ = "0.1.0"
