"""The library's answers keep their bits: ``tests/bits_digest.py``, run in
process, prints what the committed digest for the running numpy holds.

The digest is committed once per numpy minor version and per float64
``log``/``log1p`` dispatch: numpy's AVX-512 (SKX) loops and its scalar ones
round some KL terms differently, which moves 5 lines. After a change that
moves bits on purpose, regenerate the files and say in CHANGES.md why each
line moved:

    PYTHONPATH=src python tests/bits_digest.py > tests/bits_digest-numpy2.4.txt
    NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \\
        PYTHONPATH=src python tests/bits_digest.py > tests/bits_digest-numpy2.4-no-avx512.txt
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import bits_digest

NUMPY_MINOR = ".".join(np.__version__.split(".")[:2])


def _dispatches_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


def digest_path() -> Path:
    suffix = "" if _dispatches_avx512() else "-no-avx512"
    return Path(__file__).with_name(f"bits_digest-numpy{NUMPY_MINOR}{suffix}.txt")


def labels(lines: list) -> list:
    """Each line's label: its first two words (instance and answer), and for
    a CLI command's header and output lines the command, without the exit
    code."""
    out, command = [], None
    for line in lines:
        if line.startswith("cli "):
            command = line.rsplit(" ", 1)[0]
        out.append(command or " ".join(line.split()[:2]))
    return out


def test_labels_name_instances_and_commands():
    lines = ["random-1 kl (0x1p-3, 0x1p-1)", "cli bounds /bern.json --format json 0",
             '{"n": 5}', "cli gap --n 4 0", "n,tv"]
    assert labels(lines) == ["random-1 kl", "cli bounds /bern.json --format json",
                             "cli bounds /bern.json --format json", "cli gap --n 4",
                             "cli gap --n 4"]


def test_digest_is_unchanged():
    path = digest_path()
    if not path.exists():
        pytest.skip(f"no digest committed for numpy {NUMPY_MINOR} "
                    f"({'with' if _dispatches_avx512() else 'without'} AVX-512): {path.name}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bits_digest.main()
    got, want = out.getvalue().splitlines(), path.read_text().splitlines()
    moved = dict.fromkeys(label for label, new, old in zip(labels(want), got, want) if new != old)
    assert not moved and len(got) == len(want), (
        f"{len(moved)} labels moved against {path.name} "
        f"({len(got)} lines, {len(want)} committed): {', '.join(moved)}")
