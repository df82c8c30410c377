"""Event detection from keyword sets: corpus tooling, CNN models with
keyword-conditioned feature modulation, and a matching training/eval stack
on a small tape-based autodiff core."""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor
from .baseline import LinearBaseline, featurize
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    Corpus,
    Document,
    EventMention,
    LFKExample,
    Sentence,
    TriggerLexicon,
    TypeMap,
    dataset_stats,
    holdout_split,
    lexicon_from_corpus,
    load_corpus,
    load_dataset,
    load_lexicon,
    load_typemap,
    save_corpus,
    save_dataset,
    save_lexicon,
    save_typemap,
)
from .datagen import SynthSpec, generate_lfk, synth_corpus
from .encoding import (
    EmbeddingTable,
    WordTable,
    encode,
    keyword_repr,
    load_embeddings,
    write_embeddings,
)
from .metrics import EvalReport, evaluate
from .models import Model, ModelConfig, identity_cfa_surgery
from .seeding import rng_for
from .training import Adadelta, NumericError, TrainConfig, train

__all__ = [
    "Adadelta",
    "Corpus",
    "Document",
    "EmbeddingTable",
    "EvalReport",
    "EventMention",
    "LFKExample",
    "LinearBaseline",
    "Model",
    "ModelConfig",
    "NumericError",
    "Sentence",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TriggerLexicon",
    "TypeMap",
    "WordTable",
    "dataset_stats",
    "encode",
    "evaluate",
    "featurize",
    "generate_lfk",
    "holdout_split",
    "identity_cfa_surgery",
    "keyword_repr",
    "lexicon_from_corpus",
    "load_checkpoint",
    "load_corpus",
    "load_dataset",
    "load_embeddings",
    "load_lexicon",
    "load_typemap",
    "rng_for",
    "save_checkpoint",
    "save_corpus",
    "save_dataset",
    "save_lexicon",
    "save_typemap",
    "synth_corpus",
    "train",
    "write_embeddings",
]
