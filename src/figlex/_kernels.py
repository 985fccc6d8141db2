"""Build and load `_kernels.c`: figlex's SGNS training, its cosines, its
Jensen-Shannon divergence, the divergence test's split baseline, the beta
regression's whitening, likelihood and prediction, the sentence-embedding
mean, the kernel density sum and numpy's PCG64 generator, figlex's one
source of random draws, in C; and the tables and seeds they take, in
Python.  Nothing here imports numpy.

The library compiles at its first use, with the compiler that `CC` names
(default `cc`), into `cache_dir()` under a name keyed by the sha256 of the
source, the flags and the compiler's path, size and modification time, so
loading a cached library starts no process.  It is written to a temporary
name and renamed into place, so processes that build at once each load a
whole file.  There is no fallback without a compiler: a second
implementation would give a second set of bytes.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
from array import array
from bisect import bisect_left
from pathlib import Path
from typing import Sequence

_SOURCE = Path(__file__).with_name("_kernels.c")
# IEEE arithmetic in source order: no fused multiply-adds, no -ffast-math
# and no -march
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# after the source file, for log2, exp, log and sqrt
_LIBS = ("-lm",)
# word2vec's sigmoid table, as `_kernels.c` defines it
EXP_TABLE_SIZE = 1000
MAX_EXP = 6

_ptr, _i64, _u64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double

_lib = None


def cache_dir() -> Path:
    """`$XDG_CACHE_HOME/figlex`, or `~/.cache/figlex` when that is unset."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "figlex"


def _find_compiler() -> str:
    """The path of the compiler `CC` names: itself if it holds a directory,
    else its first executable match on PATH."""
    cc = os.environ.get("CC") or "cc"
    dirs = [""] if os.path.dirname(cc) else os.environ.get("PATH", os.defpath).split(os.pathsep)
    for d in dirs:
        path = os.path.join(d, cc)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    raise RuntimeError(f"no C compiler: {cc!r} is not on PATH (set CC to one); "
                       f"figlex builds its C kernels and random generator with it")


def _library_path(compiler: str) -> Path:
    """Where the library built by `compiler` is cached: its name hashes the
    source, the flags, the compiler's path and the size and modification
    time of the file that path resolves to."""
    import hashlib

    st = os.stat(compiler)
    key = b"\0".join([_SOURCE.read_bytes(), " ".join(_FLAGS + _LIBS).encode(),
                      compiler.encode(), str(st.st_size).encode(),
                      str(st.st_mtime_ns).encode()])
    return cache_dir() / f"_kernels-{hashlib.sha256(key).hexdigest()[:24]}.so"


def _build() -> Path:
    compiler = _find_compiler()
    lib = _library_path(compiler)
    if not lib.exists():
        import subprocess
        import tempfile

        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=lib.parent)
        os.close(fd)
        try:
            built = subprocess.run([compiler, *_FLAGS, "-o", tmp, str(_SOURCE), *_LIBS],
                                   capture_output=True, text=True)
            if built.returncode != 0:
                raise RuntimeError(f"{compiler} failed to build {_SOURCE.name}:\n{built.stderr}")
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


def load():
    """The kernel library, built first if the cache does not hold it."""
    global _lib
    if _lib is None:
        lib = ctypes.CDLL(str(_build()))
        signatures = {
            "sgns_epoch": (_f64, [_ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr,
                                  _i64, _ptr, _ptr, _f64, _f64, _i64, _i64]),
            "sgns_init": (None, [_ptr, _i64, _i64, _ptr]),
            "cosine": (_f64, [_ptr, _ptr, _i64]),
            "cosines": (_i64, [_ptr, _i64, _i64, _i64, _ptr]),
            "row_mean": (None, [_ptr, _i64, _ptr, _i64, _ptr]),
            "kde": (None, [_ptr, _i64, _ptr, _i64, _f64, _f64, _ptr]),
            "sigmoid": (_f64, [_f64]),
            "gammaln": (_f64, [_f64]),
            "digamma": (_f64, [_f64]),
            "beta_predict": (_f64, [_ptr, _ptr, _i64]),
            "beta_loglik": (_f64, [_ptr, _i64, _i64, _ptr, _ptr, _ptr, _ptr]),
            "whiten": (_i64, [_ptr, _i64, _i64, _ptr, _ptr, _ptr]),
            "jsd": (_f64, [_ptr, _ptr, _i64]),
            "split_baseline": (_i64, [_ptr, _ptr, _ptr, _ptr, _i64, _i64, _i64, _ptr, _ptr]),
            "permutation": (None, [_ptr, _i64, _ptr]),
            "pcg64_seed": (None, [_ptr, _ptr]),
            "pcg64_integers": (None, [_ptr, _i64, _u64, _i64, _ptr]),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        _lib = lib
    return _lib


def address(buffer: array) -> int:
    """The address of an `array.array`'s items, for a kernel argument."""
    return buffer.buffer_info()[0]


# numpy's SeedSequence constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(entropy) -> list[int]:
    """An int as its 32-bit words, low first (0 is one word); a sequence as
    the words of each item in turn."""
    try:
        value = operator.index(entropy)
    except TypeError:
        return [w for item in entropy for w in _uint32_words(item)]
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def seed_words(entropy, spawn_key: Sequence[int] = ()) -> tuple[int, int, int, int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4,
    np.uint64)`` as four ints: numpy's seeding of PCG64 (O'Neill's hash-mix
    pool), for an int or a sequence of ints."""
    words = _uint32_words(entropy)
    spawn = _uint32_words(spawn_key)
    if spawn and len(words) < _POOL_SIZE:
        words += [0] * (_POOL_SIZE - len(words))
    words += spawn
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return tuple(state[k] | state[k + 1] << 32 for k in range(0, 8, 2))


class Pcg64:
    """numpy's PCG64 bit generator in `_kernels.c`, seeded from
    ``SeedSequence(entropy, spawn_key=spawn_key)`` as ``default_rng`` seeds
    it, so each draw method equals that `Generator`'s method of the same
    name bit for bit.  `state` is the `pcg64` struct the kernels take, so a
    call holds it while it draws; only one call may draw at a time."""

    def __init__(self, entropy, spawn_key: Sequence[int] = ()):
        self.state = (_u64 * 5)()
        load().pcg64_seed(self.state, (_u64 * 4)(*seed_words(entropy, spawn_key)))

    def integers(self, low: int, high: int, size: int) -> array:
        """`size` int64 draws from low..high - 1."""
        if not -2**63 <= low < high <= 2**63:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got {low} and {high}")
        out = array("q", [0]) * size
        load().pcg64_integers(self.state, low, high - low - 1, size, address(out))
        return out

    def permutation(self, n: int) -> array:
        """0..n-1 in a random order, n <= 2**32."""
        if not 0 <= n <= 2**32:
            raise ValueError(f"permutation length {n} outside 0..2**32")
        out = array("q", [0]) * n
        load().permutation(address(out), n, self.state)
        return out

    def choice(self, pop: int, size: int) -> list[int]:
        """``choice(pop, size, replace=False)``: `size` distinct draws from
        0..pop-1 in a random order.  Like numpy, it shuffles the tail of
        0..pop-1 when pop > 10000 and size > pop // 50, and otherwise
        samples by Floyd's algorithm (Bentley & Floyd 1987), then shuffles
        the sample; each bound k is drawn as ``integers(0, k + 1)`` draws
        it."""
        if not 0 <= size <= pop:
            raise ValueError(f"cannot take {size} of {pop} without replacement")
        lib, drawn = load(), array("q", [0])

        def upto(k: int) -> int:
            lib.pcg64_integers(self.state, 0, k, 1, address(drawn))
            return drawn[0]

        if pop > 10000 and size > pop // 50:
            out, first = list(range(pop)), max(pop - size, 1)
        else:
            out, taken, first = [], set(), 1
            for j in range(pop - size, pop):
                v = upto(j)
                out.append(j if v in taken else v)
                taken.add(out[-1])
        for i in range(len(out) - 1, first - 1, -1):
            j = upto(i)
            out[i], out[j] = out[j], out[i]
        return out[len(out) - size:]


def score_tables() -> array:
    """The kernel's three float32 tables, one after another, each of
    EXP_TABLE_SIZE + 3 entries: the score s, log s and log(1 - s), each log
    clipped at 1e-10.  Entries 0..EXP_TABLE_SIZE are word2vec's grid, built
    in float64 and rounded; the last two are the saturated scores 0 and 1."""
    grid = [math.exp((i / EXP_TABLE_SIZE * 2 - 1) * MAX_EXP) for i in range(EXP_TABLE_SIZE + 1)]
    score = array("f", [e / (e + 1) for e in grid] + [0.0, 1.0])
    return (score + array("f", [math.log(max(x, 1e-10)) for x in score])
            + array("f", [math.log(max(1.0 - x, 1e-10)) for x in score]))


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    """numpy's pairwise summation of values[start:start + n], as
    ``np.add.reduce`` runs it on a contiguous float64 array: blocks of at
    most 128 in 8 strided partial sums, larger runs halved at a multiple
    of 8."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        lanes = list(values[start:start + 8])
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for q in range(8):
                lanes[q] += values[i + q]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def noise_guide(cdf: Sequence[float]) -> array:
    """The guide table of `cdf` for the kernel's noise mapping: entry j is
    the first index whose cumulative probability reaches j / len(cdf)."""
    n = len(cdf)
    return array("q", [bisect_left(cdf, j / n) for j in range(n + 1)])


def noise_table(counts: Sequence[int]) -> tuple[array, array]:
    """The unigram^0.75 noise CDF of a vocabulary's token counts and its
    `noise_guide`.  Each weight is libm's pow(count, 0.75); the CDF is the
    running sum of weight / total, the total taken by `_pairwise_sum`, with
    its last entry set to 1."""
    weights = [math.pow(c, 0.75) for c in counts]
    total = _pairwise_sum(weights, 0, len(weights))
    cdf, running = array("d", [0.0]) * len(weights), 0.0
    for i, w in enumerate(weights):
        running += w / total
        cdf[i] = running
    cdf[-1] = 1.0
    return cdf, noise_guide(cdf)
