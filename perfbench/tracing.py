"""Layer spans recorded from outside vsrkit.

``Tracer`` replaces public vsrkit functions and ``Model`` methods with
wrappers that record a span per call, under the names their callers look
up at call time (``vsrkit.training.ctc_loss``, not
``vsrkit.losses.ctc_loss``, because ``training`` imported it by name).
Spans stay in memory; self times are computed at the end as a span's
duration minus the durations of its direct children. Leaving the ``with``
block restores every original.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

from vsrkit.model import Model


def _tape_nodes(counts, args, kwargs, out):
    counts["tape_nodes"] += len(out.nodes)


def _tokens(counts, args, kwargs, out):
    counts["attention_tokens"] += len(out)


def _train_padding(counts, args, kwargs, out):
    # forward_train(self, features, lengths, ...): a batch padded to its
    # longest utterance
    feats = getattr(args[1], "data", args[1])
    counts["padded_frames"] += feats.shape[0] * feats.shape[1]
    counts["useful_frames"] += int(sum(args[2]))


def _infer_padding(counts, args, kwargs, out):
    # forward_infer(self, features, ...): one utterance, unpadded
    frames = getattr(args[1], "data", args[1]).shape[-2]
    counts["padded_frames"] += frames
    counts["useful_frames"] += frames


# (module, attribute, span name, counter)
FUNCTIONS = (
    ("vsrkit.training", "backward", "autodiff.backward", _tape_nodes),
    ("vsrkit.training", "ctc_loss", "losses.ctc", None),
    ("vsrkit.training", "attention_ce_loss", "losses.attention_ce", None),
    ("vsrkit.training", "align_loss", "losses.align", None),
    ("vsrkit.model", "ctc_greedy_decode", "decoding.greedy", None),
    ("vsrkit.model", "ctc_beam_decode", "decoding.beam", None),
    ("vsrkit.model", "attention_greedy_decode", "decoding.attention", _tokens),
    ("vsrkit.metrics", "cer", "metrics.cer", None),
)

# (Model method, span name, counter)
METHODS = (
    ("forward_train", "model.forward_train", _train_padding),
    ("forward_infer", "model.forward_infer", _infer_padding),
    ("trunk_forward", "model.trunk", None),
    ("branch_forward", "model.branch", None),
    ("fuse", "model.fuse", None),
    ("char_forward", "model.char_encoder", None),
    ("decoder_forward", "model.decoder", None),
)


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def discard_open(self):
        """Drop the innermost open span; it must have no children."""
        idx = self._stack.pop()
        if idx != len(self.spans) - 1:
            raise RuntimeError("discarding a span that has children")
        self.spans.pop()

    def _wrap(self, owner, attr, name, count):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end()
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self):
        for module, attr, name, count in FUNCTIONS:
            self._wrap(importlib.import_module(module), attr, name, count)
        for attr, name, count in METHODS:
            self._wrap(Model, attr, name, count)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def self_seconds(self):
        """Self time per span name, and the number of spans per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
            calls[name] += 1
        return total, calls

    def unit_seconds(self, prefix):
        """Summed wall time of the top-level spans named ``prefix*``."""
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0 and name.startswith(prefix))

    def dump(self, path):
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
