"""Build and load `_kernels.c`: figlex's SGNS training, its Jensen-Shannon
divergence and the divergence test's split baseline, in C.

The library compiles at its first use, with the compiler that `CC` names
(default `cc`), into `cache_dir()` under a name keyed by the sha256 of the
source, the flags and the compiler's identity; it is written to a temporary
name and renamed into place, so processes that build at once each load a
whole file.  There is no fallback without a compiler: a second
implementation would give a second set of bytes.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
# IEEE arithmetic in source order: no fused multiply-adds, no -ffast-math
# and no -march
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# after the source file, for the divergence's log2
_LIBS = ("-lm",)
# word2vec's sigmoid table, as `_kernels.c` defines it
EXP_TABLE_SIZE = 1000
MAX_EXP = 6

_lib = None


def cache_dir() -> Path:
    """`$XDG_CACHE_HOME/figlex`, or `~/.cache/figlex` when that is unset."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "figlex"


def _build() -> Path:
    import hashlib
    import shutil
    import subprocess
    import tempfile

    cc = os.environ.get("CC") or "cc"
    compiler = shutil.which(cc)
    if compiler is None:
        raise RuntimeError(f"no C compiler: {cc!r} is not on PATH (set CC to one); "
                           f"figlex builds its SGNS, divergence and split kernels with it")
    identity = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                              check=True).stdout
    key = b"\0".join([_SOURCE.read_bytes(), " ".join(_FLAGS + _LIBS).encode(),
                      compiler.encode(), identity.encode()])
    cache = cache_dir()
    lib = cache / f"_kernels-{hashlib.sha256(key).hexdigest()[:24]}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            built = subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE), *_LIBS],
                                   capture_output=True, text=True)
            if built.returncode != 0:
                raise RuntimeError(f"{cc} failed to build {_SOURCE.name}:\n{built.stderr}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def load():
    """The kernel library, built first if the cache does not hold it."""
    global _lib
    if _lib is None:
        import ctypes

        lib = ctypes.CDLL(str(_build()))
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        # the types of numpy's `bit_generator.ctypes.next_double` and `next_uint32`
        next_double = ctypes.CFUNCTYPE(f64, ptr)
        next_uint32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ptr)
        lib.sgns_epoch.argtypes = [ptr, ptr, i64, ptr, ptr, i64, ptr, next_double, ptr, i64,
                                   ptr, i64, ptr, ptr, f64, f64, i64, i64]
        lib.sgns_epoch.restype = f64
        lib.jsd.argtypes = [ptr, ptr, i64]
        lib.jsd.restype = f64
        lib.split_baseline.argtypes = [ptr, i64, ptr, ptr, i64, i64, next_uint32, ptr, ptr]
        lib.split_baseline.restype = i64
        _lib = lib
    return _lib


def score_tables() -> np.ndarray:
    """The kernel's three float32 tables, shape (3, EXP_TABLE_SIZE + 3): the
    score s, log s and log(1 - s), each log clipped at 1e-10.  Entries
    0..EXP_TABLE_SIZE are word2vec's grid, built in float64 and rounded; the
    last two are the saturated scores 0 and 1."""
    grid = [math.exp((i / EXP_TABLE_SIZE * 2 - 1) * MAX_EXP) for i in range(EXP_TABLE_SIZE + 1)]
    score = np.array([e / (e + 1) for e in grid] + [0.0, 1.0], dtype=np.float32)
    s = score.tolist()  # float64, exact
    return np.array([s, [math.log(max(x, 1e-10)) for x in s],
                     [math.log(max(1.0 - x, 1e-10)) for x in s]], dtype=np.float32)


def noise_guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of `cdf` for the kernel's noise mapping: entry j is
    the first index whose cumulative probability reaches j / len(cdf)."""
    return np.searchsorted(cdf, np.arange(len(cdf) + 1) / len(cdf))
