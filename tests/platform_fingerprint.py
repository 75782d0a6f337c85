"""The platform the sha256 pins were made on, and the one a test runs on.

The output bytes of `fedmm train` and `fedmm partition` depend on the
OpenBLAS kernel, which rounds each gemm its own way, and on numpy's SIMD
level, at which `exp`, `log` and `log1p` change bytes. So the pins in
tests/test_cli.py and bench/workloads.py hold on one platform, PINNED_ON,
and every pin assertion prints both fingerprints when it fails: a reader
can then tell a numeric change from another platform.
"""

import contextlib
import ctypes
import glob
from pathlib import Path

import numpy as np

PINNED_ON = {"numpy": "2.4.6", "dispatch": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "blas_core": "SkylakeX"}


def dispatch_targets() -> str:
    """numpy's enabled dispatch targets: the `__cpu_dispatch__` entries
    `__cpu_features__` marks on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2 keeps it under numpy.core
        from numpy.core import _multiarray_umath as umath
    return " ".join(target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target))


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, read as bench/run.py reads
    `blas_core`; "unknown" for any other BLAS."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_corename64_.argtypes = []
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            return lib.scipy_openblas_get_corename64_().decode()
    return "unknown"


def fingerprint() -> dict[str, str]:
    return {"numpy": np.__version__, "dispatch": dispatch_targets(), "blas_core": blas_core()}


def platforms() -> str:
    """Both fingerprints, for the message of a failing pin assertion."""
    return f"pins made on {PINNED_ON}; this run on {fingerprint()}"
