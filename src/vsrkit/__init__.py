"""vsrkit: a desk-scale, cascade-free multitask sequence recognition
toolkit with semantic-guided local contrastive alignment."""

from .linguistics import (
    LabelTriple,
    Lexicon,
    LexiconEntry,
    LinguisticInventory,
    LinguisticsError,
    build_mapping_matrix,
    build_window_mask,
    default_inventory,
    default_lexicon,
    load_inventory,
    load_lexicon,
    text_to_labels,
)
from .losses import (
    LossBundle,
    LossConfig,
    align_loss,
    attention_ce_loss,
    ctc_loss,
    hybrid_loss,
    total_loss,
)
from .decoding import Hypothesis, attention_greedy_decode, ctc_beam_decode, \
    ctc_greedy_decode
from .metrics import CerReport, cer
from .model import ActivationConfig, ALL_ACTIVATIONS, Model, ModelConfig
from .synth import SynthConfig, Utterance, generate_corpus, make_lexicon, \
    read_manifest, time_mask, write_manifest
from .training import TrainConfig, TrainState, evaluate, lr_schedule, train

__version__ = "0.1.0"
