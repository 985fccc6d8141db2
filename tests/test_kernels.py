"""The C kernels' tables, their noise mapping, the PCG64 port's draws and
its seeding against numpy, and how the library is built and cached.  The
SGNS kernel is checked against a scalar loop in test_embeddings.py, the
split walk against a plain loop in test_corpus.py, and the divergence
against exact sums and scipy in test_stats.py."""

import ctypes
import hashlib
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import figlex
from figlex import _kernels

from conftest import write_jsonl

SCORE_ZERO = _kernels.EXP_TABLE_SIZE + 1
SCORE_ONE = _kernels.EXP_TABLE_SIZE + 2

# sha256 of the float32 bytes of the score table and its two log tables
TABLE_SHA256 = (
    "d2b39ca77645820668dce9e87c9e85df0c395758b862d35dccdc75e092d20d64",
    "d0c7053cb5aa6672f20d8f36ddce58998bec8d6aac570ef4016a3b294dc74939",
    "fbc0f30d430ba83b191af853b721e49fa032f78512fa303095a3d389baba0220",
)


# Includes the kernel source, so its static noise_row and pcg64_next_double
# are in scope.
HARNESS = """#include "_kernels.c"

void noise_rows(const double *cdf, int64_t n, const int64_t *guide,
                const double *draws, int64_t count, int64_t *out)
{
    for (int64_t c = 0; c < count; c++)
        out[c] = noise_row(cdf, n, guide, draws[c]);
}

void doubles(pcg64 *g, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = pcg64_next_double(g);
}

void permutations(int64_t n, int64_t rows, pcg64 *g, int64_t *out)
{
    for (int64_t r = 0; r < rows; r++)
        permutation(out + r * n, n, g);
}
"""


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    """`HARNESS`, built with the library's flags."""
    tmp = tmp_path_factory.mktemp("harness")
    (tmp / "harness.c").write_text(HARNESS)
    built = subprocess.run(
        [os.environ.get("CC") or "cc", *_kernels._FLAGS, "-I", str(_kernels._SOURCE.parent),
         "-o", str(tmp / "harness.so"), str(tmp / "harness.c"), *_kernels._LIBS],
        capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    lib = ctypes.CDLL(str(tmp / "harness.so"))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.noise_rows.argtypes = [ptr, i64, ptr, ptr, i64, ptr]
    lib.noise_rows.restype = None
    lib.doubles.argtypes = [ptr, i64, ptr]
    lib.doubles.restype = None
    lib.permutations.argtypes = [i64, i64, ptr, ptr]
    lib.permutations.restype = None
    return lib


@pytest.fixture(scope="module")
def kernel_doubles(harness):
    """The next n doubles of a `Pcg64`, as the SGNS kernels draw them."""

    def doubles(g, n):
        out = array("d", [0.0]) * n
        harness.doubles(g.state, n, _kernels.address(out))
        return out.tolist()

    return doubles


@pytest.fixture(scope="module")
def kernel_noise_rows(harness):
    """The kernel's noise mapping of `uniforms` through `cdf`."""

    def noise_rows(cdf, uniforms):
        guide = np.frombuffer(_kernels.noise_guide(cdf), dtype=np.int64)
        out = np.empty(uniforms.size, dtype=np.int64)
        harness.noise_rows(cdf.ctypes.data, cdf.size, guide.ctypes.data,
                           uniforms.ctypes.data, uniforms.size, out.ctypes.data)
        return out

    return noise_rows


def table_rows():
    """The kernel's three tables as the rows of a (3, EXP_TABLE_SIZE + 3)
    float32 array."""
    tables = _kernels.score_tables()
    assert tables.typecode == "f"
    return np.frombuffer(tables, dtype=np.float32).reshape(3, _kernels.EXP_TABLE_SIZE + 3)


class TestTables:
    def test_tables_are_pinned(self):
        tables = table_rows()
        assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == TABLE_SHA256

    def test_saturated_entries(self):
        score, log_score, log_rest = table_rows()
        assert score[SCORE_ZERO] == 0 and score[SCORE_ONE] == 1
        assert log_score[SCORE_ONE] == 0 and log_rest[SCORE_ZERO] == 0
        assert log_score[SCORE_ZERO] == log_rest[SCORE_ONE] == np.float32(np.log(1e-10))
        assert score[_kernels.EXP_TABLE_SIZE // 2] == 0.5


class TestNoiseMapping:
    # weights spanning many decades, so the CDF has tiny steps and repeats
    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.floats(1e-30, 1e6), st.integers(1, 10**9)),
                            min_size=1, max_size=60),
           drawn=arrays(np.float64, st.integers(0, 40),
                        elements=st.floats(0.0, 1.0, exclude_max=True)))
    # CDF entries u whose guide bucket int(u * n) starts past their index
    @example(weights=[1, 2, 1, 2, 4, 2], drawn=np.zeros(0))
    @example(weights=[4, 2, 3, 4, 3, 2, 4, 4, 1, 3], drawn=np.zeros(0))
    def test_guide_table_equals_searchsorted(self, kernel_noise_rows, weights, drawn):
        weights = np.array(weights, dtype=np.float64)
        cdf = np.cumsum(weights / weights.sum())
        cdf[-1] = 1.0
        below = np.nextafter(cdf, 0.0)
        # 0, the largest double below 1, every CDF entry and its neighbours
        edges = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], cdf, below,
                                np.nextafter(below, 0.0), np.nextafter(cdf, 2.0)))
        uniforms = np.concatenate((edges[edges <= 1.0], drawn))
        assert np.array_equal(kernel_noise_rows(cdf, uniforms), np.searchsorted(cdf, uniforms))


class TestShuffle:
    @pytest.mark.parametrize("n", [2, 3, 1500])
    def test_rows_equal_successive_generator_permutations(self, harness, kernel_doubles, n):
        # 50 shuffles in one C call, each going on from the last
        rows = 50
        g = _kernels.Pcg64(n)
        out = np.empty((rows, n), dtype=np.int64)
        harness.permutations(n, rows, g.state, out.ctypes.data)
        reference = np.random.default_rng(n)
        assert np.array_equal(out, [reference.permutation(n) for _ in range(rows)])
        # both generators are left at the same point of their streams
        assert g.integers(0, 2**63, 1)[0] == reference.integers(2**63)
        assert kernel_doubles(g, 1) == [reference.random()]


def numpy_seed_words(entropy, spawn_key=()):
    words = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64)
    return tuple(int(w) for w in words)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5]


class TestSeedWords:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("spawn_key", [(), (0,), (1,)])
    def test_equal_numpy_seed_sequence(self, seed, spawn_key):
        for entropy in (seed, [seed, 0x5E9, 0], [seed, 0x5E9, 1]):
            assert _kernels.seed_words(entropy, spawn_key) == numpy_seed_words(entropy, spawn_key)

    @settings(max_examples=300, deadline=None)
    @given(entropy=st.integers(0, 2**160) | st.lists(st.integers(0, 2**70), max_size=9),
           spawn_key=st.lists(st.integers(0, 2**40), max_size=3))
    def test_equal_numpy_seed_sequence_everywhere(self, entropy, spawn_key):
        assert (_kernels.seed_words(entropy, tuple(spawn_key))
                == numpy_seed_words(entropy, tuple(spawn_key)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _kernels.seed_words(-1)


def draws_match(seed, kernel_draws, numpy_draws, doubles):
    """`kernel_draws(Pcg64(seed))` equals `numpy_draws(default_rng(seed))`,
    and the two generators are then at the same point of their streams:
    the next 32-bit draw, a held half if there is one, and then the next
    double, which `doubles(g, 1)` reads, agree."""
    kernel, reference = _kernels.Pcg64(seed), np.random.default_rng(seed)
    assert list(kernel_draws(kernel)) == list(numpy_draws(reference))
    assert kernel.integers(0, 2**32, 1)[0] == reference.integers(0, 2**32)
    assert doubles(kernel, 1) == [reference.random()]


class TestPcg64:
    @pytest.mark.parametrize("seed", SEEDS + [[7, 0x5E9, 1]])
    def test_doubles(self, kernel_doubles, seed):
        draws_match(seed, lambda g: kernel_doubles(g, 2000),
                    lambda rng: rng.random(2000).tolist(), kernel_doubles)

    @pytest.mark.parametrize("width", [1, 2, 5, 2**32 - 1, 2**32, 2**33])
    def test_integers(self, kernel_doubles, width):
        draws_match([width, 0x5E9, 0], lambda g: g.integers(1, width + 1, 3001),
                    lambda rng: rng.integers(1, width + 1, size=3001).tolist(), kernel_doubles)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1500])
    def test_permutations(self, kernel_doubles, n):
        draws_match(n, lambda g: [g.permutation(n).tolist() for _ in range(50)],
                    lambda rng: [rng.permutation(n).tolist() for _ in range(50)], kernel_doubles)

    def test_spawned_child_is_numpy_child(self, kernel_doubles):
        child = np.random.SeedSequence(9).spawn(2)[1]
        assert (kernel_doubles(_kernels.Pcg64(9, (1,)), 50)
                == np.random.default_rng(child).random(50).tolist())

    # numpy shuffles the tail of 0..pop-1 when pop > 10000 and size > pop // 50,
    # and samples by Floyd's algorithm otherwise: both paths, their boundary
    # at (10001, 200) and (10001, 201), the empty and the whole sample
    @pytest.mark.parametrize("pop, size", [(0, 0), (1, 1), (7, 0), (7, 7), (100, 37),
                                           (10000, 10000), (10001, 200), (10001, 201),
                                           (10001, 10001), (40000, 0), (40000, 801)])
    def test_choice(self, kernel_doubles, pop, size):
        for seed in range(3):
            # two calls in a row: the second goes on from the first
            draws_match([seed, pop, size], lambda g: [g.choice(pop, size) for _ in range(2)],
                        lambda rng: [rng.choice(pop, size, replace=False).tolist()
                                     for _ in range(2)], kernel_doubles)

    def test_choice_rejects_a_sample_larger_than_the_population(self):
        with pytest.raises(ValueError, match="cannot take 4 of 3"):
            _kernels.Pcg64(0).choice(3, 4)

    def test_rejects_an_empty_interval(self):
        with pytest.raises(ValueError, match="low < high"):
            _kernels.Pcg64(0).integers(3, 3, 1)


def reference_noise_table(counts):
    """The unigram^0.75 CDF from libm's pow, numpy's sum and cumsum, and its
    guide from searchsorted."""
    weights = np.array([math.pow(c, 0.75) for c in counts])
    cdf = np.cumsum(weights / np.add.reduce(weights))
    cdf[-1] = 1.0
    return cdf, np.searchsorted(cdf, np.arange(len(cdf) + 1) / len(cdf))


class TestNoiseTable:
    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(1, 10**9), min_size=1, max_size=300))
    def test_equals_numpy_reference(self, counts):
        cdf, guide = _kernels.noise_table(counts)
        want_cdf, want_guide = reference_noise_table(counts)
        assert cdf.typecode == "d" and guide.typecode == "q"
        assert cdf.tobytes() == want_cdf.tobytes()
        assert guide.tolist() == want_guide.tolist()

    @pytest.mark.parametrize("size", [127, 128, 129, 8192, 20000])
    def test_equals_numpy_reference_on_zipf_vocabularies(self, size):
        # the pairwise sum's block and split boundaries, and beyond numpy's
        # 8192-element buffer
        counts = sorted(np.random.default_rng(size).zipf(1.3, size).tolist(), reverse=True)
        cdf, guide = _kernels.noise_table(counts)
        want_cdf, want_guide = reference_noise_table(counts)
        assert cdf.tobytes() == want_cdf.tobytes()
        assert guide.tolist() == want_guide.tolist()


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(figlex.__file__).parents[1]), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _load_after(barrier, queue):
    _kernels._lib = None  # forget the library this process inherited
    barrier.wait()
    queue.put(_kernels.load()._name)


class TestBuildAndCache:
    def test_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert _kernels.cache_dir() == tmp_path / "xdg" / "figlex"
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert _kernels.cache_dir() == tmp_path / "home" / ".cache" / "figlex"

    def test_cached_library_loads_without_a_child_process(self, monkeypatch):
        _kernels.load()  # built and cached

        def no_process(*args, **kwargs):
            raise AssertionError("a cached library started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(_kernels, "_lib", None)
        assert _kernels.load().jsd  # loaded again, from the cache

    def test_compiler_with_another_stat_gets_another_library(self, tmp_path, monkeypatch):
        compiler = _kernels._find_compiler()
        copy = tmp_path / "cc"
        shutil.copy(compiler, copy)
        st = os.stat(compiler)
        os.utime(copy, ns=(st.st_atime_ns, st.st_mtime_ns))
        names = {_kernels._library_path(compiler).name,
                 _kernels._library_path(str(copy)).name}  # another path
        os.utime(copy, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        names.add(_kernels._library_path(str(copy)).name)  # another mtime
        with open(copy, "ab") as fh:
            fh.write(b"\0")
        os.utime(copy, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        names.add(_kernels._library_path(str(copy)).name)  # another size
        assert len(names) == 4
        monkeypatch.setenv("CC", str(copy))
        assert _kernels._find_compiler() == str(copy)

    def test_source_compiles_without_warnings(self, tmp_path):
        # a mistyped parameter, such as a kernel's generator pointer, shows
        # here before it can crash a training run
        built = subprocess.run(
            [os.environ.get("CC") or "cc", *_kernels._FLAGS, "-Wall", "-Wextra", "-Wpedantic",
             "-Werror", "-o", str(tmp_path / "kernels.so"), str(_kernels._SOURCE),
             *_kernels._LIBS],
            capture_output=True, text=True, timeout=120)
        assert built.returncode == 0, built.stderr

    def test_prepare_without_a_compiler_fails_at_embed_and_writes_nothing(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", [
            {"author_id": f"{g}{i}", "group": g, "text": "we saw the moon over the hill"}
            for g in "MF" for i in range(3)])
        lexicon = write_jsonl(tmp_path / "lexicon.jsonl",
                              [{"canonical": "over the moon", "definition": "very happy"}])
        (tmp_path / "bin").mkdir()
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "figlex.cli", "prepare", "--corpus", str(corpus),
             "--lexicon", str(lexicon), "--out", str(out), "--min-count", "0",
             "--dim", "4", "--epochs", "1", "--train-min-count", "1"],
            env=child_env(PATH=str(tmp_path / "bin"), XDG_CACHE_HOME=str(tmp_path / "cache")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "error in stage embed: no C compiler" in proc.stderr
        assert not out.exists()

    def test_two_forked_processes_build_one_empty_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        ctx = multiprocessing.get_context("fork")
        barrier, queue = ctx.Barrier(2), ctx.Queue()
        procs = [ctx.Process(target=_load_after, args=(barrier, queue)) for _ in range(2)]
        for proc in procs:
            proc.start()
        names = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        built = list((tmp_path / "figlex").iterdir())  # no temporary file left
        assert len(built) == 1
        assert names == [str(built[0])] * 2
