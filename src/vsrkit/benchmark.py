"""The standard synthetic benchmark: fixed data/model/training recipes.
Its one training variant is ``full``; the paper's ablations are
``vsrkit train --disable-align`` (``[loss] lambda1 = 0``) and
``--disable-branches`` (``[model] with_branches = false``).

A benchmark seed fully determines the train and held-out corpora (which
share a phoneme codebook and lexicon), the model init, and the data order.
"""
from __future__ import annotations

from dataclasses import replace

from .linguistics import default_inventory
from .losses import LossConfig
from .model import CHAR_OFFSET, ModelConfig
from .synth import SynthConfig, generate_corpus, make_lexicon
from .training import TrainConfig

__all__ = [
    "benchmark_synth_config",
    "benchmark_model_config",
    "benchmark_train_config",
    "make_benchmark_data",
]

_TRAIN_UTTERANCES = 144
_TEST_UTTERANCES = 48
_CHAR_VOCAB = 40
_TEST_SEED_OFFSET = 90_000


def benchmark_synth_config(seed):
    return SynthConfig(
        seed=seed,
        codebook_seed=seed,
        num_utterances=_TRAIN_UTTERANCES,
        char_vocab_size=_CHAR_VOCAB,
        sentence_len=(1, 4),
        frames_per_phoneme=(3, 7),
        feature_dim=16,
        noise_std=0.6,
    )


def benchmark_model_config(lexicon_size):
    return ModelConfig(
        char_vocab=lexicon_size + CHAR_OFFSET,
        input_dim=16,
        model_dim=64,
        trunk_layers=2,
        char_encoder_layers=2,
        attention_heads=4,
        p_drop=0.1,
        max_decode_len=8,
        max_frames=120,
    )


def benchmark_train_config(seed, variant="full"):
    if variant != "full":
        raise ValueError(f"unknown benchmark variant {variant!r}")
    return TrainConfig(
        epochs_phase1=6,
        epochs_phase2=6,
        phase1_max_frames=28,
        batch_size=8,
        lr_phase1=1e-3,
        lr_phase2=1e-4,
        warmup_steps=8,
        seed=seed,
        loss=LossConfig(),
    )


def make_benchmark_data(seed):
    """Train and held-out corpora sharing one codebook and lexicon."""
    inv = default_inventory()
    lexicon = make_lexicon(inv, _CHAR_VOCAB, seed=seed)
    train_cfg = benchmark_synth_config(seed)
    test_cfg = replace(train_cfg, seed=seed + _TEST_SEED_OFFSET,
                       num_utterances=_TEST_UTTERANCES)
    return (generate_corpus(train_cfg, inv, lexicon),
            generate_corpus(test_cfg, inv, lexicon),
            inv, lexicon)
