"""Toy-scale cascade-free network: shared trunk, phoneme/viseme branch
encoders with class heads, stochastic branch-drop fusion, and a character
encoder/decoder pair producing CTC and attention logits from one memory.

All compute runs on autodiff Tensors; parameters are named with
group prefixes (trunk/phoneme/viseme/fusion/char_encoder/char_decoder/heads)
so checkpoints can verify which branches exist.

Every method takes and returns padded ``(B, T, ·)`` arrays but one: the
memory that ``char_forward`` returns is packed, and its caller runs the
decoder and the CTC head on it. Given a ``valid`` mask, the trunk, the
branches and the character encoder compute on its packed ``(N, C)`` rows;
only attention and the depthwise conv unpack, inside the block. Padded rows
of their outputs are exactly zero. With ``valid=None`` nothing is packed.

There is one checkpoint file layout, written by ``Model.save`` and read by
``Model.load``: a ``.npz`` with ``__version__`` ("vsrkit-checkpoint v3"),
``__config__`` (the model config JSON) and ``param::<name>`` arrays. A
training state is the same file with extra sections that ``Model.load``
ignores: ``__train__`` (the step and the rng state) and the optimizer
moments. ``Model.load`` builds the model of the saved config, checks every
saved name and shape against its parameters and then assigns the saved
arrays, so the building blocks read ``params`` by name with nothing to
fall back on.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .decoding import Hypothesis, attention_greedy_decode, ctc_beam_decode, \
    ctc_greedy_decode, log_probs
from .linguistics import NUM_VISEMES

__all__ = [
    "ModelConfig",
    "ActivationConfig",
    "ALL_ACTIVATIONS",
    "ForwardOutputs",
    "Model",
    "CheckpointError",
    "check_arrays",
    "json_section",
    "DECODE_MODES",
    "BLANK_ID",
    "SOS_ID",
    "EOS_ID",
    "CHAR_OFFSET",
]

CHECKPOINT_VERSION = "vsrkit-checkpoint v3"

# character token layout shared by both char heads
BLANK_ID = 0
SOS_ID = 1
EOS_ID = 2
CHAR_OFFSET = 3

# the ``decode`` values ``Model.forward_infer`` accepts
DECODE_MODES = ("ctc_greedy", "ctc_beam", "attention")

_LN_EPS = 1e-5
_CONV_KERNEL = 3  # depthwise conv width in the character encoder
_FFN_MULT = 4  # feed-forward hidden width = mult * model_dim


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    char_vocab: int
    phoneme_vocab: int = 38
    input_dim: int = 16
    model_dim: int = 64
    trunk_layers: int = 2
    branch_layers: int = 1
    char_encoder_layers: int = 2
    char_decoder_layers: int = 1
    attention_heads: int = 4
    p_drop: float = 0.1
    max_decode_len: int = 16
    max_frames: int = 256
    head_hidden_mult: int = 4  # head hidden width = mult * vocab size

    def __post_init__(self):
        counts = (self.char_vocab, self.phoneme_vocab, self.input_dim,
                  self.model_dim, self.trunk_layers, self.branch_layers,
                  self.char_encoder_layers, self.char_decoder_layers,
                  self.attention_heads, self.max_decode_len, self.max_frames)
        if any(c < 1 for c in counts):
            raise ValueError("all sizes and layer counts must be positive")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError(f"p_drop must be in [0, 1), got {self.p_drop}")
        if self.model_dim % self.attention_heads:
            raise ValueError("model_dim must be divisible by attention_heads")

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass(frozen=True)
class ActivationConfig:
    """Which intermediate-representation branches run at inference."""

    use_phoneme: bool = True
    use_viseme: bool = True

    @property
    def name(self):
        return "f" + ("+p" if self.use_phoneme else "") + \
            ("+v" if self.use_viseme else "")

    @classmethod
    def from_name(cls, name):
        parts = set(name.lower().replace(" ", "").split("+"))
        if "f" not in parts or not parts <= {"f", "p", "v"}:
            raise ValueError(f"unknown activation config {name!r}")
        return cls(use_phoneme="p" in parts, use_viseme="v" in parts)


ALL_ACTIVATIONS = (
    ActivationConfig(False, False),
    ActivationConfig(True, False),
    ActivationConfig(False, True),
    ActivationConfig(True, True),
)


@dataclass
class ForwardOutputs:
    F: Tensor = None
    P: Tensor = None
    V: Tensor = None
    phoneme_logits: Tensor = None
    viseme_logits: Tensor = None
    char_ctc_logits: Tensor = None
    char_attn_logits: Tensor = None
    drop_masks: tuple = None


def droppath_sum(F, P, V, mask_p, mask_v, p_drop):
    """Pre-activation fused sum of ``F`` and the branches present. A branch
    with a drop mask is masked and rescaled by 1/(1-p_drop), so the sum is
    unbiased; a branch whose mask is None is added as it is."""
    out = F
    scale = 1.0 / (1.0 - p_drop)
    for branch, mask in ((P, mask_p), (V, mask_v)):
        if branch is not None:
            out = ad.add(out, branch if mask is None
                         else ad.mul(branch, mask * scale))
    return out


class Model:
    def __init__(self, cfg: ModelConfig, seed=0, with_branches=True):
        self.cfg = cfg
        self.with_branches = with_branches
        self.params = self._init_params(seed, with_branches)

    # ------------------------------------------------------------------
    # parameters

    def _init_params(self, seed, with_branches):
        cfg = self.cfg
        rng = np.random.default_rng([seed, 7_000_001])
        params = {}

        def w(name, *shape, std=None):
            if std is None:
                std = 1.0 / np.sqrt(shape[0])
            params[name] = Tensor(rng.normal(scale=std, size=shape))

        def b(name, n):
            params[name] = Tensor(np.zeros(n))

        def norm(prefix):
            params[f"{prefix}_scale"] = Tensor(np.ones(cfg.model_dim))
            params[f"{prefix}_bias"] = Tensor(np.zeros(cfg.model_dim))

        def ffn(prefix):
            norm(f"{prefix}_norm")
            w(f"{prefix}_w1", cfg.model_dim, _FFN_MULT * cfg.model_dim)
            b(f"{prefix}_b1", _FFN_MULT * cfg.model_dim)
            w(f"{prefix}_w2", _FFN_MULT * cfg.model_dim, cfg.model_dim)
            b(f"{prefix}_b2", cfg.model_dim)

        def attn(prefix):
            norm(f"{prefix}_norm")
            for part in ("q", "k", "v", "o"):
                w(f"{prefix}_w{part}", cfg.model_dim, cfg.model_dim)
                if part != "k":  # a key bias shifts every score of a query
                    b(f"{prefix}_b{part}", cfg.model_dim)  # equally: useless

        def head(prefix, vocab):
            hidden = cfg.head_hidden_mult * vocab
            w(f"{prefix}_w1", cfg.model_dim, hidden)
            b(f"{prefix}_b1", hidden)
            w(f"{prefix}_w2", hidden, vocab)
            b(f"{prefix}_b2", vocab)

        w("trunk/in_proj_w", cfg.input_dim, cfg.model_dim)
        b("trunk/in_proj_b", cfg.model_dim)
        params["trunk/pos"] = Tensor(
            0.02 * rng.normal(size=(cfg.max_frames, cfg.model_dim)))
        for i in range(cfg.trunk_layers):
            ffn(f"trunk/ffn{i}")
        attn("trunk/attn")

        if with_branches:
            for branch in ("phoneme", "viseme"):
                for i in range(cfg.branch_layers):
                    attn(f"{branch}/layer{i}_attn")
                    ffn(f"{branch}/layer{i}_ffn")
            head("heads/phoneme", cfg.phoneme_vocab)
            head("heads/viseme", NUM_VISEMES)

        norm("fusion/norm")

        for i in range(cfg.char_encoder_layers):
            ffn(f"char_encoder/layer{i}_ffn1")
            attn(f"char_encoder/layer{i}_attn")
            norm(f"char_encoder/layer{i}_conv_norm")
            params[f"char_encoder/layer{i}_conv_w"] = Tensor(
                rng.normal(scale=1.0 / np.sqrt(_CONV_KERNEL),
                           size=(_CONV_KERNEL, cfg.model_dim)))
            b(f"char_encoder/layer{i}_conv_b", cfg.model_dim)
            ffn(f"char_encoder/layer{i}_ffn2")
        norm("char_encoder/out_norm")

        w("char_decoder/embed", cfg.char_vocab, cfg.model_dim,
          std=1.0 / np.sqrt(cfg.model_dim))
        params["char_decoder/pos"] = Tensor(
            0.02 * rng.normal(size=(cfg.max_decode_len + 1, cfg.model_dim)))
        for i in range(cfg.char_decoder_layers):
            attn(f"char_decoder/layer{i}_self")
            attn(f"char_decoder/layer{i}_cross")
            ffn(f"char_decoder/layer{i}_ffn")
        norm("char_decoder/out_norm")

        head("heads/char_ctc", cfg.char_vocab)
        head("heads/char_attn", cfg.char_vocab)
        return params

    def count_active_params(self, act: ActivationConfig) -> int:
        """Parameters on the executed path for one activation setting."""
        groups = ("trunk/", "fusion/", "char_encoder/", "char_decoder/",
                  "heads/char_ctc", "heads/char_attn")
        if act.use_phoneme:
            groups += ("phoneme/", "heads/phoneme")
        if act.use_viseme:
            groups += ("viseme/", "heads/viseme")
        return sum(p.data.size for name, p in self.params.items()
                   if name.startswith(groups))

    # ------------------------------------------------------------------
    # building blocks

    def _norm(self, x, prefix):
        return ad.layer_norm(x, self.params[f"{prefix}_scale"],
                             self.params[f"{prefix}_bias"], _LN_EPS)

    def _linear(self, x, prefix, suffix, bias=True):
        """``x @ {prefix}_w{suffix} + {prefix}_b{suffix}`` as one node."""
        return ad.linear(x, self.params[f"{prefix}_w{suffix}"],
                         self.params[f"{prefix}_b{suffix}"] if bias else None)

    def _ffn(self, x, prefix):
        h = ad.silu(self._linear(self._norm(x, f"{prefix}_norm"), prefix, 1))
        return ad.add(x, self._linear(h, prefix, 2))

    def _attention(self, x_q, x_kv, prefix, key_valid=None, causal=False,
                   cache=None):
        """Pre-norm multi-head attention plus residual. ``x_q`` is B x T_q x C;
        ``x_kv`` is B x T_k x C, or None for self-attention. ``key_valid``
        (B x T_k) hides padded keys; ``causal`` hides later keys in a
        self-attention without ``key_valid``. A 2-D ``x_q`` holds the packed
        ``key_valid`` rows of a self-attention, and so does the result.
        ``cache`` keeps keys and values by ``prefix`` (``decoder_forward``)."""
        rows = key_valid if x_q.data.ndim == 2 else None
        xq = ad.unpack(self._norm(x_q, f"{prefix}_norm"), rows)
        xkv = xq if x_kv is None else x_kv
        kv = None if cache is None else cache.get(prefix)
        if kv is None or x_kv is None:
            new = (self._linear(xkv, prefix, "k", bias=False),
                   self._linear(xkv, prefix, "v"))
            kv = new if kv is None else [Tensor(np.concatenate(
                (old.data, row.data), -2)) for old, row in zip(kv, new)]
            if cache is not None:
                cache[prefix] = kv
        k, v = kv
        disallow = None if key_valid is None else ~key_valid[:, None, :]
        # query i is position i + T_k - T_q; a lone query sees every key
        if causal and xq.data.shape[-2] > 1:
            Tq, Tk = xq.data.shape[-2], k.data.shape[-2]
            disallow = np.triu(np.ones((Tq, Tk), dtype=bool), k=Tk - Tq + 1)
        heads = ad.attention(self._linear(xq, prefix, "q"), k, v,
                             self.cfg.attention_heads, disallow)
        return ad.add(x_q, self._linear(ad.pack(heads, rows), prefix, "o"))

    def _depthwise_conv(self, x, prefix, valid):
        # unpacking zero-fills the padding the kernel reads across the edge
        h = ad.unpack(self._norm(x, f"{prefix}_norm"), valid)
        h = ad.pack(ad.depthwise_conv(h, self.params[f"{prefix}_w"]), valid)
        return ad.add(x, ad.silu(ad.add(h, self.params[f"{prefix}_b"])))

    # ------------------------------------------------------------------
    # forward passes

    def trunk_forward(self, features, valid=None):
        """Shared feature trunk: projection + positions + per-frame
        feed-forward stack with one self-attention layer."""
        cfg = self.cfg
        features = as_tensor(features)
        if features.data.ndim != 3 or features.data.shape[-1] != cfg.input_dim:
            raise ValueError(
                f"features must be B x T x {cfg.input_dim}, "
                f"got {features.data.shape}"
            )
        T = features.data.shape[1]
        if T > cfg.max_frames:
            raise ValueError(f"sequence of {T} frames exceeds max_frames")
        x = ad.add(self._linear(features, "trunk/in_proj", ""),
                   self.params["trunk/pos"][:T])
        x = ad.pack(x, valid)
        for i in range(cfg.trunk_layers):
            x = self._ffn(x, f"trunk/ffn{i}")
        x = self._attention(x, None, "trunk/attn", key_valid=valid)
        return ad.unpack(x, valid)

    def branch_forward(self, F, which, valid=None):
        """One intermediate-representation branch: encoder layers plus the
        class head. Returns (representation, framewise logits)."""
        if which not in ("phoneme", "viseme"):
            raise ValueError(f"unknown branch {which!r}")
        x = ad.pack(F, valid)
        for i in range(self.cfg.branch_layers):
            x = self._attention(x, None, f"{which}/layer{i}_attn", key_valid=valid)
            x = self._ffn(x, f"{which}/layer{i}_ffn")
        logits = self._head(x, f"heads/{which}")
        return ad.unpack(x, valid), ad.unpack(logits, valid)

    def _head(self, x, prefix):
        return self._linear(ad.silu(self._linear(x, prefix, 1)), prefix, 2)

    def fuse(self, F, P, V, drop_masks=None):
        """Stochastic branch-drop fusion: nonlinearity over the sum of the
        trunk features and the branch features, masked and rescaled when
        ``drop_masks`` are given."""
        mask_p, mask_v = drop_masks or (None, None)
        return ad.silu(droppath_sum(F, P, V, mask_p, mask_v, self.cfg.p_drop))

    def sample_drop_masks(self, rng, batch_size):
        keep = 1.0 - self.cfg.p_drop
        mp = (rng.random((batch_size, 1, 1)) < keep).astype(np.float64)
        mv = (rng.random((batch_size, 1, 1)) < keep).astype(np.float64)
        return mp, mv

    def char_forward(self, fused, valid=None):
        """Character encoder over fused features; returns the memory, its
        packed valid rows when ``valid`` is given. Callers run the decoder
        and the CTC head on it."""
        cfg = self.cfg
        x = self._norm(ad.pack(fused, valid), "fusion/norm")
        for i in range(cfg.char_encoder_layers):
            x = self._ffn(x, f"char_encoder/layer{i}_ffn1")
            x = self._attention(x, None, f"char_encoder/layer{i}_attn",
                                key_valid=valid)
            x = self._depthwise_conv(x, f"char_encoder/layer{i}_conv", valid)
            x = self._ffn(x, f"char_encoder/layer{i}_ffn2")
        return self._norm(x, "char_encoder/out_norm")

    def decoder_forward(self, F_mem, tokens, memory_valid=None, cache=None):
        """Teacher-forced decoder: causal self-attention over the token
        prefix and cross-attention into the encoder memory. With a ``cache``
        dict (inference only, empty at first), ``tokens`` are the tokens
        after the cached positions, and only their positions are computed."""
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=np.int64)
        _, L = tokens.shape
        start = 0 if not cache else \
            cache["char_decoder/layer0_self"][0].data.shape[-2]  # cached keys
        if start + L > cfg.max_decode_len + 1:
            raise ValueError("decoder input longer than max_decode_len")
        x = ad.add(self.params["char_decoder/embed"][tokens],
                   self.params["char_decoder/pos"][start:start + L])
        for i in range(cfg.char_decoder_layers):
            x = self._attention(x, None, f"char_decoder/layer{i}_self",
                                causal=True, cache=cache)
            x = self._attention(x, F_mem, f"char_decoder/layer{i}_cross",
                                key_valid=memory_valid, cache=cache)
            x = self._ffn(x, f"char_decoder/layer{i}_ffn")
        return self._head(self._norm(x, "char_decoder/out_norm"),
                          "heads/char_attn")

    def forward_train(self, features, lengths, decoder_inputs,
                      rng) -> ForwardOutputs:
        """Full training-mode forward pass. A model with branches runs both
        and fuses them under branch-drop masks sampled from ``rng``; a model
        built without them fuses the trunk features alone."""
        features = as_tensor(features)
        B, T, _ = features.data.shape
        lengths = np.asarray(lengths)
        if lengths.shape != (B,) or not np.all((lengths >= 1) & (lengths <= T)):
            raise ValueError(f"lengths must be {B} values in [1, {T}], "
                             f"got {lengths.tolist()}")
        valid = np.arange(T)[None, :] < lengths[:, None]
        out = ForwardOutputs()
        out.F = self.trunk_forward(features, valid)
        if self.with_branches:
            out.P, out.phoneme_logits = self.branch_forward(out.F, "phoneme", valid)
            out.V, out.viseme_logits = self.branch_forward(out.F, "viseme", valid)
            out.drop_masks = self.sample_drop_masks(rng, B)
            fused = self.fuse(out.F, out.P, out.V, out.drop_masks)
        else:
            fused = self.fuse(out.F, None, None)
        mem = self.char_forward(fused, valid)
        out.char_attn_logits = self.decoder_forward(
            ad.unpack(mem, valid), decoder_inputs, memory_valid=valid)
        out.char_ctc_logits = ad.unpack(self._head(mem, "heads/char_ctc"), valid)
        return out

    @ad.inference()
    def forward_infer(self, features, act: ActivationConfig, decode,
                      beam_width) -> Hypothesis:
        """Inference on one utterance, a T x ``input_dim`` array, with
        on-demand branch activation.

        Only the branches enabled by ``act`` execute; their framewise argmax
        classes ride along on the hypothesis for interpretability. Runs
        under ``autodiff.inference()``; an ``AutodiffError`` names ``act`` if
        the logits it decodes (CTC, or each attention step's) are not finite.
        """
        if decode not in DECODE_MODES:
            raise ValueError(f"unknown decode mode {decode!r}")
        x = as_tensor(features).data
        if x.shape[1:] != (self.cfg.input_dim,) or not len(x):
            raise ValueError(
                f"forward_infer takes one T x {self.cfg.input_dim} "
                f"utterance with T >= 1, got shape {x.shape}")
        if (act.use_phoneme or act.use_viseme) and not self.with_branches:
            raise CheckpointError(
                f"activation {act.name!r} requests a branch absent from "
                f"the checkpoint"
            )
        F = self.trunk_forward(x[None])
        P = V = None
        branch_frames = {}
        if act.use_phoneme:
            P, p_logits = self.branch_forward(F, "phoneme")
            branch_frames["phoneme"] = p_logits.data[0].argmax(axis=-1).tolist()
        if act.use_viseme:
            V, v_logits = self.branch_forward(F, "viseme")
            branch_frames["viseme"] = v_logits.data[0].argmax(axis=-1).tolist()
        F_mem = self.char_forward(self.fuse(F, P, V))

        def finite(logits):
            if not np.isfinite(logits).all():
                raise ad.AutodiffError(f"non-finite logits under {act.name!r}")
            return logits

        ctc = None if decode == "attention" else \
            finite(self._head(F_mem, "heads/char_ctc").data[0])
        if decode == "ctc_greedy":
            tokens = ctc_greedy_decode(ctc)
            score = float(log_probs(ctc).max(axis=-1).sum())
        elif decode == "ctc_beam":
            hyps = ctc_beam_decode(ctc, beam_width)
            tokens, score = (list(hyps[0].tokens), hyps[0].score) if hyps \
                else ([], 0.0)
        else:
            cache = {}  # decoder state: each step feeds the newest token
            tokens = attention_greedy_decode(
                lambda prefix: finite(self.decoder_forward(
                    F_mem, [prefix[-1:] or [SOS_ID]], cache=cache).data[0, -1]),
                self.cfg.max_decode_len, EOS_ID)
            score = 0.0
        return Hypothesis(tokens=tuple(tokens), score=score,
                          branch_frames=branch_frames)

    # ------------------------------------------------------------------
    # checkpoints

    def save(self, path, **sections):
        """Write the one checkpoint layout: ``__version__``, ``__config__``
        (the model config JSON) and one ``param::<name>`` array per
        parameter. ``sections`` are extra named arrays stored alongside,
        such as a training state's; ``load`` ignores them."""
        np.savez(path,
                 __version__=np.array(CHECKPOINT_VERSION),
                 __config__=np.array(self.cfg.to_json()),
                 **{f"param::{k}": p.data for k, p in self.params.items()},
                 **sections)

    @classmethod
    def load(cls, path):
        """Read a model or training-state checkpoint: check the version, then
        give the model of ``__config__`` (with branches iff ``phoneme/``
        arrays exist) its ``param::`` arrays, matched by name and shape."""
        with np.load(path, allow_pickle=False) as z:
            version = str(z["__version__"]) if "__version__" in z else None
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version!r} in {path}; "
                    f"expected {CHECKPOINT_VERSION!r}")
            values = json_section(z, path, "__config__", (), CheckpointError)
            loaded = {k.removeprefix("param::"): z[k] for k in z.files
                      if k.startswith("param::")}
        bad = sorted(set(values) ^ {f.name for f in fields(ModelConfig)})
        if bad:
            kind = "unknown" if bad[0] in values else "missing"
            raise CheckpointError(
                f"{path}: {kind} ModelConfig key {bad[0]!r}")
        model = cls(ModelConfig(**values), with_branches=any(
            k.startswith("phoneme/") for k in loaded))
        check_arrays(path, "parameter", loaded,
                     {k: p.data for k, p in model.params.items()},
                     CheckpointError)
        for name in model.params:
            model.params[name] = Tensor(loaded[name])
        return model


def json_section(z, path, name, keys, error):
    """The JSON object in section ``name`` of the open checkpoint ``z``;
    raises ``error`` naming ``path`` and the section if the section is
    missing or is not a JSON object, or the first of ``keys`` it lacks."""
    if name not in z.files:
        raise error(f"{path} lacks section {name}")
    try:
        value = json.loads(str(z[name]))
    except json.JSONDecodeError as e:
        raise error(f"{path}: section {name} is not JSON ({e})") from None
    if not isinstance(value, dict):
        raise error(f"{path}: section {name} is not a JSON object")
    for key in keys:
        if key not in value:
            raise error(f"{path}: section {name} lacks key {key!r}")
    return value


def check_arrays(path, what, loaded, expected, error):
    """Raise ``error`` naming ``path`` and the first ``what`` array of
    ``expected`` (name -> array) that ``loaded`` lacks or holds in another
    shape, else the first ``loaded`` name that ``expected`` lacks."""
    for name in [*expected, *loaded]:
        if name not in loaded:
            raise error(f"{path} lacks {what} {name}")
        if name not in expected:
            raise error(f"{path} holds unexpected {what} {name}")
        if loaded[name].shape != expected[name].shape:
            raise error(f"{what} {name} in {path} has shape "
                        f"{loaded[name].shape}, expected "
                        f"{expected[name].shape}")
