"""Command-line entry point: gen / train / eval / g2p / verify.

Configuration is an INI-style file with [synth], [model], [loss], [train]
and [eval] sections; command-line flags override file values and the
effective configuration is echoed so any run can be reproduced from it;
values are literal (no ``%`` interpolation). A refused ``gen``, ``train``
or ``eval`` leaves ``--out`` as it was. ``eval`` runs the activations asked
for, else every one the checkpoint has, and echoes a line for each;
``training.evaluate`` writes its report. A command runs with one OpenBLAS
thread, because GEMMs split over threads round differently and a run's bits
would follow the machine's core count.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .linguistics import (
    default_inventory,
    default_lexicon,
    load_inventory,
    load_lexicon,
    text_to_labels,
)
from .losses import LossConfig
from .model import ALL_ACTIVATIONS, CHAR_OFFSET, DECODE_MODES, \
    ActivationConfig, Model, ModelConfig
from .synth import SynthConfig, generate_corpus, make_lexicon, read_manifest, \
    viseme_frequencies, write_manifest
from .training import TrainConfig, evaluate, train
from .verify import run_all

__all__ = ["main"]

_CONFIG_SECTIONS = {
    "synth": SynthConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "model": ModelConfig,
}

_EVAL_KEYS = {"decode": str, "beam_width": int, "activations": str}

_GEN_KEYS = {"lexicon": str}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _coerce(section, key, value: str, py_type):
    try:
        if py_type is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[
                value.strip().lower()]
        if py_type is tuple:
            return tuple(int(x) for x in value.split(","))
        return py_type(value)
    except (KeyError, ValueError):
        raise UsageError(f"config key [{section}] {key} = {value!r} is not "
                         f"a valid {py_type.__name__}") from None


_TYPES_BY_NAME = {"int": int, "float": float, "bool": bool, "tuple": tuple}


def _section_values(cp, section, schema):
    """Typed values of one INI section. ``schema`` maps each key to its
    type, or is a config class whose fields give the keys and types."""
    if dataclasses.is_dataclass(schema):
        schema = {f.name: _TYPES_BY_NAME.get(f.type)
                  for f in dataclasses.fields(schema)}
    out = {}
    if not cp.has_section(section):
        return out
    for key, raw in cp.items(section):
        if key not in schema:
            raise UsageError(f"unknown config key [{section}] {key}")
        if schema[key] is None:
            raise UsageError(
                f"config key [{section}] {key} belongs in its own section"
            )
        out[key] = _coerce(section, key, raw, schema[key])
    return out


def _config(section, cls, **values):
    """``cls(**values)``; a value the class rejects is a usage error that
    names the section."""
    try:
        return cls(**values)
    except ValueError as e:
        raise UsageError(f"config section [{section}]: {e}") from None


def _load_config(path):
    cp = configparser.ConfigParser(interpolation=None)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as e:
            raise UsageError(f"cannot read config file {path}: {e}") from None
        for section in cp.sections():
            if section not in (*_CONFIG_SECTIONS, "eval", "gen"):
                raise UsageError(f"unknown config section [{section}]")
    return cp


def _effective_ini(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        if not values:
            continue
        lines.append(f"[{name}]")
        for k, v in values.items():
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(map(str, v))
            lines.append(f"{k} = {v}")
        lines.append("")
    return "\n".join(lines)


def _echo(args, text):
    if not args.quiet:
        print(text)


def _write_effective(args, sections):
    text = _effective_ini(sections)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.ini").write_text(text, encoding="utf-8")
    _echo(args, text)
    return text


def _dc_dict(obj):
    d = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if dataclasses.is_dataclass(v):
            continue
        d[f.name] = v
    return d


# ----------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    cp = _load_config(args.config)
    synth_kw = _section_values(cp, "synth", SynthConfig)
    gen_kw = _section_values(cp, "gen", _GEN_KEYS)
    if args.seed is not None:
        synth_kw["seed"] = args.seed
    scfg = _config("synth", SynthConfig, **synth_kw)
    if not args.out:
        raise UsageError("gen requires --out for the manifest directory")

    inv = default_inventory()
    source = gen_kw.get("lexicon", "synthetic")
    if source == "synthetic":
        lexicon = make_lexicon(
            inv, scfg.char_vocab_size,
            seed=scfg.codebook_seed if scfg.codebook_seed is not None
            else scfg.seed,
        )
    elif source == "bundled":
        lexicon = default_lexicon(inv)
    else:
        lexicon = load_lexicon(source, inv)

    corpus = generate_corpus(scfg, inv, lexicon)
    _write_effective(args, {"synth": _dc_dict(scfg), "gen": gen_kw})
    write_manifest(args.out, corpus, inv, lexicon)
    _echo(args, f"wrote {len(corpus)} utterances to {args.out}")
    return 0


def _model_config_from_data(cp, corpus, inv, lexicon):
    kw = _section_values(cp, "model", ModelConfig)
    max_T = max(u.num_frames() for u in corpus)
    max_L = max(len(u.labels.chars) for u in corpus)
    kw.setdefault("char_vocab", len(lexicon) + CHAR_OFFSET)
    kw.setdefault("phoneme_vocab", inv.num_phonemes)
    kw.setdefault("input_dim", corpus[0].features.shape[1])
    kw.setdefault("max_frames", max_T + 8)
    kw.setdefault("max_decode_len", max_L + 2)
    return _config("model", ModelConfig, **kw)


def cmd_train(args):
    cp = _load_config(args.config)
    if not args.data:
        raise UsageError("train requires --data with a manifest directory")
    if not args.out:
        raise UsageError("train requires --out for the run directory")
    corpus, inv, lexicon = read_manifest(args.data)

    train_kw = _section_values(cp, "train", TrainConfig)
    loss_kw = _section_values(cp, "loss", LossConfig)
    if args.seed is not None:
        train_kw["seed"] = args.seed
    if args.disable_align:
        loss_kw["lambda1"] = 0.0
    tcfg = _config("train", TrainConfig,
                   loss=_config("loss", LossConfig, **loss_kw), **train_kw)
    mcfg = _model_config_from_data(cp, corpus, inv, lexicon)
    if args.disable_branches:
        mcfg = dataclasses.replace(mcfg, with_branches=False)

    out = Path(args.out)
    log_path = out / "metrics.jsonl"
    started = False

    def start():
        # ``train`` has accepted the run: only now may its files change
        nonlocal started
        started = True
        _write_effective(args, {"train": _dc_dict(tcfg),
                                "loss": _dc_dict(tcfg.loss),
                                "model": _dc_dict(mcfg)})
        if not args.resume:
            log_path.unlink(missing_ok=True)

    def log_fn(record):
        if not started:
            start()
        with open(log_path, "a", encoding="utf-8") as log:
            log.write(json.dumps(record) + "\n")

    state = train(tcfg, corpus, inv, mcfg, checkpoint_dir=out / "checkpoints",
                  resume=args.resume, log_fn=log_fn)
    if not started:  # no step ran
        start()
    state.save(out / "final.npz")
    threads = args.blas_threads or "unpinned"
    _echo(args, f"trained {state.step} steps with BLAS threads: {threads}; "
                f"state in {out / 'final.npz'}")
    return 0


def cmd_eval(args):
    cp = _load_config(args.config)
    if not args.checkpoint or not args.data:
        raise UsageError("eval requires --checkpoint and --data")
    if not args.out:
        raise UsageError("eval requires --out for the report directory")
    eval_kw = _section_values(cp, "eval", _EVAL_KEYS)
    decode = eval_kw.get("decode", "ctc_greedy")
    if decode not in DECODE_MODES:
        raise UsageError(f"config key [eval] decode = {decode!r} is not one "
                         f"of {', '.join(DECODE_MODES)}")
    beam_width = eval_kw.get("beam_width", 8)
    if beam_width < 1:
        raise UsageError(f"config key [eval] beam_width = {beam_width} is "
                         f"not >= 1")
    names = args.activate or \
        [a.strip() for a in eval_kw.get("activations", "").split(";") if a]
    given = "--activate" if args.activate else \
        f"config key [eval] activations = {eval_kw.get('activations')!r}"
    try:
        activations = [ActivationConfig.from_name(n) for n in names]
    except ValueError as e:
        raise UsageError(f"{given}: {e}") from None
    repeated = [a for i, a in enumerate(activations) if a in activations[:i]]
    if repeated:
        raise UsageError(f"{given}: activation {repeated[0].name!r} repeats")

    corpus, inv, lexicon = read_manifest(args.data)
    model = Model.load(args.checkpoint)
    present = ALL_ACTIVATIONS if model.cfg.with_branches else \
        ALL_ACTIVATIONS[:1]  # "f" alone
    absent = [n for n, a in zip(names, activations) if a not in present]
    if absent:
        raise UsageError(f"activation {absent[0]!r} requests a branch absent "
                         f"from the checkpoint {args.checkpoint}")
    if not names:
        activations, names = present, [a.name for a in present]

    summaries, seconds = evaluate(model, corpus, activations, lexicon, decode,
                                  beam_width, args.out)
    _write_effective(args, {"eval": {**eval_kw,
                                     "activations": ";".join(names)}})
    for s in summaries:
        _echo(args, f"{s['activation']:>6}: corpus CER {s['corpus_cer']:.4f} "
                    f"median {s['median_cer']:.4f} "
                    f"params {s['active_params']} "
                    f"wall {seconds[s['activation']]:.3f}s")
    return 0


def cmd_g2p(args):
    inv = load_inventory(args.inventory) if args.inventory else \
        default_inventory()
    lexicon = load_lexicon(args.lexicon, inv) if args.lexicon else \
        default_lexicon(inv)

    if args.file:
        text_lines = Path(args.file).read_text(encoding="utf-8").splitlines()
    elif args.text is not None:
        text_lines = [args.text]
    else:
        raise UsageError("g2p needs TEXT or --file")

    if args.stats:
        labels = (text_to_labels(line.strip(), lexicon, inv)
                  for line in text_lines)
        freqs = viseme_frequencies(labels, inv)
        print("Viseme\tFrequency\tIPA")
        for vid in range(inv.num_visemes):
            syms = ",".join(inv.phonemes[i] for i in inv.phonemes_of_viseme(vid))
            freq = "N/A" if vid == 0 else f"{100.0 * freqs[vid]:.2f}%"
            print(f"{vid}\t{freq}\t{syms}")
        return 0

    for line in text_lines:
        line = line.strip()
        if not line:
            continue
        labels = text_to_labels(line, lexicon, inv)
        print("chars:    " + " ".join(line))
        print("phonemes: " + " ".join(inv.phonemes[p] for p in labels.phonemes))
        print("visemes:  " + " ".join(str(v) for v in labels.visemes))
    return 0


def cmd_verify(args):
    results = run_all(fast=args.fast)
    ok = all(r["passed"] for r in results)
    if args.json:
        print(json.dumps({"passed": ok, "suites": results}, indent=2))
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            detail = {k: v for k, v in r.items() if k not in ("suite", "passed")}
            print(f"{status} {r['suite']}: {detail}")
    return 0 if ok else 2


# ----------------------------------------------------------------------


def _build_parser():
    p = _Parser(prog="vsrkit",
                description="cascade-free multitask sequence recognition "
                            "toolkit")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate a synthetic corpus manifest")

    t = sub.add_parser("train", help="train on a manifest")
    t.add_argument("--data", help="manifest directory")
    t.add_argument("--disable-align", action="store_true",
                   help="ablation: drop the alignment loss")
    t.add_argument("--disable-branches", action="store_true",
                   help="single-stage ablation: [model] with_branches = false")
    t.add_argument("--resume", help="continue from a saved training state")

    e = sub.add_parser("eval", help="evaluate a checkpoint per activation")
    e.add_argument("--checkpoint",
                   help="checkpoint file (model or training state)")
    e.add_argument("--data", help="manifest directory")
    e.add_argument("--activate", action="append",
                   choices=[a.name for a in ALL_ACTIVATIONS],
                   help="activation config (repeatable)")

    g = sub.add_parser("g2p", help="character to phoneme/viseme conversion")
    g.add_argument("text", nargs="?", default=None)
    g.add_argument("--file", help="read text lines from a file")
    g.add_argument("--stats", action="store_true",
                   help="print a viseme frequency table")
    g.add_argument("--inventory", help="inventory file override")
    g.add_argument("--lexicon", help="lexicon file override")

    v = sub.add_parser("verify", help="run the oracle suites")
    v.add_argument("--json", action="store_true")
    v.add_argument("--fast", action="store_true",
                   help="smaller instance counts")
    return p


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "g2p": cmd_g2p,
    "verify": cmd_verify,
}


def _set_blas_threads(n):
    """Set the OpenBLAS that numpy bundles to ``n`` threads and return the
    count it had, or None if numpy bundles none."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # already loaded: the same library
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if get is None:
                continue
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            had = get()
            put(n)
            return had
    return None


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    had = _set_blas_threads(1)  # an in-process caller gets its count back
    args.blas_threads = None if had is None else 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"vsrkit: error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"vsrkit: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        if had is not None:
            _set_blas_threads(had)


if __name__ == "__main__":
    sys.exit(main())
