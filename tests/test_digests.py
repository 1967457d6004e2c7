"""The bits of a whole ``gen`` -> ``train`` -> ``eval`` run, pinned.

The run is ``test_cli.CFG_TEXT``'s: a ten-utterance manifest, six
training steps and an eval under every decoder. Its outputs follow the
BLAS kernel, so each pin names its platform: the numpy version, the
OpenBLAS version and the OpenBLAS core that numpy's BLAS picked at
start-up. On a platform with no pin the test is skipped and names the
platform; it never passes there. A change that moves these bits on
purpose updates the pins and says why.
"""
import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from test_cli import CFG_TEXT
from vsrkit.cli import main
from vsrkit.model import DECODE_MODES

# sha256 (first 16 hex digits) of each output, by (numpy, BLAS, core)
PINS = {
    ("2.4.6", "scipy-openblas 0.3.31.188.0", "SkylakeX"): {
        "index.tsv": "e5bdecec49f96218",
        "features.npy": "faa048db3dd3cfa6",
        "metrics.jsonl": "4396ddf2d5ab1cea",
        "final.npz": "056b3eae17e87411",
        "ctc_greedy/report.jsonl": "0e51cae50fa4cde9",
        "ctc_beam/report.jsonl": "735ef48bc4e9bb29",
        "attention/report.jsonl": "bb6d46df37b1f473",
    },
}


def _platform():
    """numpy's version, its BLAS and the OpenBLAS core in use (None if
    numpy bundles no OpenBLAS that names it)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # already loaded: the same library
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                core = get().decode()
                break
    return np.__version__, f"{blas.get('name')} {blas.get('version')}", core


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _array_digest(path):
    """Digest of a checkpoint's parameter and moment arrays, by name: the
    arrays' bits, not the zip's."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as z:
        for name in sorted(z.files):
            if name.startswith(("param::", "m::", "v::")):
                a = z[name]
                h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_cli_run_reproduces_its_pinned_digests(tmp_path):
    platform = _platform()
    if platform not in PINS:
        pytest.skip("no pinned digests for numpy {}, {}, core {}"
                    .format(*platform))
    data, rd = tmp_path / "data", tmp_path / "run"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CFG_TEXT, encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(data), "--quiet",
                 "gen"]) == 0
    assert main(["--config", str(cfg), "--out", str(rd), "--quiet",
                 "train", "--data", str(data)]) == 0
    got = {name: _digest((data / name).read_bytes())
           for name in ("index.tsv", "features.npy")}
    got.update({"metrics.jsonl": _digest((rd / "metrics.jsonl").read_bytes()),
                "final.npz": _array_digest(rd / "final.npz")})
    for decode in DECODE_MODES:
        cfg = tmp_path / f"{decode}.ini"
        cfg.write_text(f"{CFG_TEXT}\n[eval]\ndecode = {decode}\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / decode),
                     "--quiet", "eval", "--checkpoint", str(rd / "final.npz"),
                     "--data", str(data)]) == 0
        got[f"{decode}/report.jsonl"] = _digest(
            (tmp_path / decode / "report.jsonl").read_bytes())
    assert got == PINS[platform]
