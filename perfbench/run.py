"""Pipeline benchmark for figlex: prepare -> analyze -> report, end to end.

    python3 perfbench/run.py --workload many_short_posts --seed 1 --seconds 50 --trace 0

A run makes its inputs from --seed (gen.py; the fixture workload uses the
checked-in tests/data files), times a cold ``import figlex.cli`` in fresh
interpreters, then repeats the three CLI subcommands as fresh
``python -m figlex.cli`` processes in a closed loop, one process at a time,
until --seconds is used up (at least twice).  Every output is checked.
Times are reported at nominal machine speed (see Runner).  It prints one
line per metric and, last, one JSON result line holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  In a traced run
every other repeat goes through tracing.py, and the difference from the
untraced repeats is the tracing overhead.  Full results, with raw times, the
environment and input digests, go to perfbench/work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import gen
import tracing

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "perfbench" / "work"
TRACER = Path(tracing.__file__).resolve()
SUBCOMMANDS = (("prepare",), ("analyze",), ("report", "--format", "json"))
MIN_REPEATS = 2
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run stops starting work here and ends inside 180 s
# reference_task() seconds at nominal speed (median on a 2.1 GHz Xeon vCPU);
# times are reported scaled to this speed, see Runner
REFERENCE_S = 0.1
SPEED_WINDOW_S = 10.0

FIXTURE_FILES = ("tests/data/corpus_fixture.jsonl", "tests/data/lexicon_fixture.jsonl",
                 "tests/data/vad_fixture.csv", "tests/data/fixture.conf")
# smoke size for the fixture; its planted signals need the full training
FIXTURE_SMOKE_ARGS = ("--n-splits", "20")

WORKLOADS = ("fixture", *gen.SPECS)

END_TO_END = {"pipeline_s": "s", "prepare_s": "s", "analyze_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}

# ratios the traced run computes: span -> (metric, unit, better, value from
# calls, self seconds, total seconds and the inputs, whose corpus gives tokens)
DERIVED = {
    # prepare trains on the whole corpus, analyze once per group: two passes
    "embeddings.train_sgns": ("us_per_token_epoch", "us", "lower", lambda n, own, total, i:
                              1e6 * own / (2 * i.tokens * i.setting("epochs"))),
    "stats.divergence_gap_test": ("ms_per_split", "ms", "lower", lambda n, own, total, i:
                                  1e3 * total / (n * i.setting("n_splits"))),
    "corpus.load_corpus": ("tokens_per_s", "tokens/s", "higher",
                           lambda n, own, total, i: n * i.tokens / own),
    "matcher.count_usages": ("tokens_per_s", "tokens/s", "higher",
                             lambda n, own, total, i: n * i.tokens / total),
}
# figlex's tokenizer pattern; the bench counts input tokens with it
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, functions in tracing.LAYERS.items():
        for function in functions:
            name = f"{module}.{function}"
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                    (f"{name}.total_s", "s", "lower")]
            if name in DERIVED:
                metric, unit, better, _ = DERIVED[name]
                out.append((f"{name}.{metric}", unit, better))
            if name in tracing.COUNTERS:
                out.append((f"{name}.{tracing.COUNTERS[name][0]}", "count", "lower"))
    out += [("trace.pipeline_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


@dataclass
class Inputs:
    cwd: Path                  # subcommands run here
    config: str                # --config, relative to cwd
    files: dict[str, Path]
    threads: int               # FIGLEX_THREADS
    extra_args: tuple[str, ...] = ()
    settings: dict[str, str] = field(default_factory=dict)
    tokens: int = 0            # tokens in the input corpus

    def setting(self, key: str) -> int:
        flags = dict(zip(self.extra_args[::2], self.extra_args[1::2]))
        return int(flags.get("--" + key.replace("_", "-"), self.settings[key]))


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    if workload == "fixture":
        files = {Path(f).name: ROOT / f for f in FIXTURE_FILES}
        inputs = Inputs(ROOT, FIXTURE_FILES[-1], files, 1,
                        FIXTURE_SMOKE_ARGS if smoke else ())
    else:
        files = gen.generate(workload, seed, WORK / workload / "inputs", smoke=smoke)
        inputs = Inputs(files["config"].parent, files["config"].name, files,
                        gen.SPECS[workload].threads)
    config = inputs.cwd / inputs.config
    for line in config.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            inputs.settings[key.strip()] = value.strip()
    corpus = inputs.cwd / inputs.settings["corpus"]
    with open(corpus, encoding="utf-8") as fh:
        inputs.tokens = sum(len(_TOKEN_RE.findall(json.loads(line)["text"].lower()))
                            for line in fh if line.strip() and not line.startswith("#"))
    return inputs


def bench_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", FIGLEX_THREADS=str(threads))
    return env


def environment(env: dict[str, str]) -> dict[str, object]:
    commit = None  # outside a git checkout, src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "figlex").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    keys = ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "FIGLEX_THREADS")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **{k: env[k] for k in keys},
    }


def reference_task() -> float:
    """Wall seconds of a fixed CPU task that mixes interpreted loops and
    small numpy kernels, as the pipeline does."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(400_000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    m = np.random.default_rng(0).random((40, 40))
    for _ in range(3000):
        m = np.tanh(m @ m.T * 0.025)
    return time.perf_counter() - start


@dataclass
class Proc:
    start: float
    end: float
    wall: float     # seconds as measured
    cpu: float      # user + sys seconds as measured
    rss_mb: float
    code: int
    speed: float = 1.0  # REFERENCE_S / reference-task seconds around it

    @property
    def wall_s(self) -> float:
        return self.wall * self.speed

    @property
    def cpu_s(self) -> float:
        return self.cpu * self.speed


class Runner:
    """Runs processes one at a time and times the reference task after
    each, on every CPU in turn, while nothing else of the run executes.

    Other tenants of the host change the speed of each CPU of this machine
    by up to +-40%, independently of the other CPU and over seconds to
    minutes, in CPU time as much as in wall time.  A process's speed is
    REFERENCE_S over the mean reference time, across CPUs and the references
    within SPEED_WINDOW_S of it; its times scaled by that speed are seconds
    at nominal speed, which repeat across runs where raw times do not.  Raw
    times stay in result.json.
    """

    def __init__(self, env: dict[str, str], log: Path, deadline: float) -> None:
        self.env, self.log, self.deadline = env, log, deadline
        self.cpus = sorted(os.sched_getaffinity(0))
        self.references: list[tuple[float, list[float]]] = []  # (time, seconds per CPU)
        self.procs: list[Proc] = []
        self._reference()

    def _reference(self) -> None:
        at, seconds = time.perf_counter(), []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                seconds.append(reference_task())
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.references.append((at, seconds))

    def run(self, argv: list[str], cwd: Path) -> Proc:
        with open(self.log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._reference()
        self.procs.append(Proc(start, end, end - start, usage.ru_utime + usage.ru_stime,
                               usage.ru_maxrss / 1024.0, proc.returncode))
        return self.procs[-1]

    def rescale(self) -> None:
        """Set every process's speed from the references around it."""
        for proc in self.procs:
            near = [t for at, seconds in self.references for t in seconds
                    if proc.start - SPEED_WINDOW_S <= at <= proc.end + SPEED_WINDOW_S]
            proc.speed = REFERENCE_S / statistics.mean(near)


@dataclass
class Iteration:
    traced: bool
    procs: list[Proc]
    digests: dict[str, str]
    spans: list[dict]

    @property
    def ok(self) -> bool:
        return len(self.procs) == len(SUBCOMMANDS) and all(p.code == 0 for p in self.procs)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)


def run_iteration(runner: Runner, inputs: Inputs, out: Path, traced: bool) -> Iteration:
    procs, spans = [], []
    for sub in SUBCOMMANDS:
        args = [*sub, "--config", inputs.config, "--out", str(out), *inputs.extra_args]
        span_file = out.parent / f"{out.name}.{sub[0]}.spans.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(span_file), *args]
        else:
            argv = [sys.executable, "-m", "figlex.cli", *args]
        proc = runner.run(argv, inputs.cwd)
        procs.append(proc)
        if proc.code != 0:
            break
        if traced:
            spans.append(json.loads(span_file.read_text(encoding="utf-8")))
    digests = {p.name: gen.sha256(p) for p in sorted(out.glob("*")) if p.is_file()}
    return Iteration(traced, procs, digests, spans)


class Checks:
    """Operations attempted and failed; each check is one operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, fn) -> None:
        try:
            ok, detail = bool(fn()), ""
        except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, ok, detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def planted_checks(checks: Checks, workload: str, out: Path) -> None:
    """The planted signals each workload's inputs carry."""
    def divergence_skew():
        doc = json.loads((out / "divergence.json").read_text(encoding="utf-8"))
        return doc["cross_jsd"] > max(doc["baseline_max"].values())

    checks.add("cross_jsd > max baseline_max", divergence_skew)
    if workload != "fixture":
        return
    gscore = lambda name: float({r["canonical"]: r["gscore"]  # noqa: E731
                                 for r in _csv_rows(out / "gscore_idioms.csv")}[name])
    checks.add("wooden spoon removed", lambda: {
        r["canonical"]: r["status"] for r in _csv_rows(out / "literality_report.csv")
    }["wooden spoon"] == "removed")
    checks.add("under fire in bottom two simrbo", lambda: "under fire" in [
        r["canonical"] for r in _csv_rows(out / "simrbo.csv")[:2]])
    checks.add("over the moon gscore > 0", lambda: gscore("over the moon") > 0)
    checks.add("pick a fight gscore < 0", lambda: gscore("pick a fight") < 0)


def schema_validator():
    import jsonschema

    schema = json.loads((ROOT / "src/figlex/data/report_schema.json").read_text("utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def time_setup(runner: Runner) -> list[Proc]:
    """Cold `import figlex.cli` in fresh interpreters, after one warm-up
    that also confirms the import resolves to this checkout's sources."""
    probe = subprocess.run(
        [sys.executable, "-c", "import figlex.cli, figlex; print(figlex.__file__)"],
        cwd=ROOT, env=runner.env, capture_output=True, text=True, timeout=60)
    where = probe.stdout.strip()
    if probe.returncode != 0 or not where.startswith(str(ROOT / "src")):
        raise RuntimeError(f"figlex does not import from {ROOT / 'src'}: "
                           f"{where or probe.stderr.strip()}")
    argv = [sys.executable, "-c", "import figlex.cli"]
    return [runner.run(argv, ROOT) for _ in range(SETUP_REPEATS)]


def aggregate_spans(iteration: Iteration) -> tuple[dict, dict, list[str]]:
    """Per span name: calls, self and total seconds at nominal speed;
    counters; absent functions."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, list[int]] = {}
    absent: set[str] = set()
    for doc, proc in zip(iteration.spans, iteration.procs):
        spans = doc["spans"]
        for (name, start, end, _), own in zip(spans, tracing.self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own * proc.speed
            total_s[name] = total_s.get(name, 0.0) + (end - start) * proc.speed
        for name, values in doc["counts"].items():
            counts.setdefault(name, []).extend(values)
        absent.update(doc["absent"])
    # calls from worker threads finish in any order
    counts = {name: sorted(values) for name, values in counts.items()}
    return {"calls": calls, "self_s": self_s, "total_s": total_s}, counts, sorted(absent)


def layer_metrics(traced: list[Iteration], untraced_wall: float, inputs: Inputs,
                  checks: Checks) -> tuple[dict[str, float], list[str]]:
    """Per-layer values (medians over traced repeats) and the absent ones."""
    per_iter = [aggregate_spans(it) for it in traced]
    checks.add("span calls and counters repeat across traced repeats", lambda: all(
        (a[0]["calls"], a[1]) == (per_iter[0][0]["calls"], per_iter[0][1]) for a in per_iter))
    sums, counts, absent = per_iter[0]
    med = {kind: {name: statistics.median(a[0][kind].get(name, 0.0) for a in per_iter)
                  for name in sums["calls"]} for kind in ("self_s", "total_s")}
    values: dict[str, float] = {}
    missing = {name for name, _, _ in per_layer_metrics() if name.rpartition(".")[0] in absent}
    for name, _, _ in per_layer_metrics():
        span, _, metric = name.rpartition(".")
        calls = sums["calls"].get(span, 0)
        if span == "trace":
            value = statistics.median(it.wall_s for it in traced)
            if metric == "overhead_s":
                value -= untraced_wall
        elif metric == "calls":
            value = calls
        elif metric in med:
            value = med[metric].get(span, 0.0)
        elif span in tracing.COUNTERS:
            got = counts.get(span)
            value = tracing.COUNTERS[span][2](got) if got else 0
            if not got:
                missing.add(name)
        else:
            try:
                value = DERIVED[span][3](calls, med["self_s"][span], med["total_s"][span], inputs)
            except (KeyError, ZeroDivisionError):
                value = 0.0
                missing.add(name)
        values[name] = value
    return values, sorted(missing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "figlex" / "cli.py").is_file():
        print(f"perfbench: no figlex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runs = work / "runs"
    runs.mkdir(parents=True)

    inputs = make_inputs(args.workload, args.seed, args.smoke)
    runner = Runner(bench_env(inputs.threads), runs / "stderr.log", deadline)
    setup = time_setup(runner)

    checks = Checks()
    validator = schema_validator()
    iterations: list[Iteration] = []
    loop_start = time.perf_counter()
    while True:
        k = len(iterations)
        traced = bool(args.trace) and k % 2 == 1
        out = runs / f"iter{k}"
        it = run_iteration(runner, inputs, out, traced)
        iterations.append(it)
        for i, sub in enumerate(SUBCOMMANDS):
            checks.add(f"iter{k} {sub[0]} exits 0",
                       lambda i=i: i < len(it.procs) and it.procs[i].code == 0)
        if not it.ok:
            break
        checks.add(f"iter{k} report.json matches the schema", lambda: not list(
            validator.iter_errors(json.loads((out / "report.json").read_text("utf-8")))))
        if k == 0:
            planted_checks(checks, args.workload, out)
        else:
            checks.add(f"iter{k} artifacts byte-identical to iter0",
                       lambda: it.digests == iterations[0].digests)
        now = time.perf_counter()
        typical = statistics.median(sum(p.wall for p in i.procs) for i in iterations)
        enough = len(iterations) >= MIN_REPEATS and (not args.trace or k % 2 == 1)
        if (enough and now - loop_start + typical > args.seconds) or now + typical > deadline:
            break

    runner.rescale()
    plain = [it for it in iterations if not it.traced and it.ok]
    traced = [it for it in iterations if it.traced and it.ok]
    ok_runs = bool(plain) and (bool(traced) or not args.trace)

    def timings(wall: str, cpu: str) -> dict[str, float]:
        out = {"setup_s": statistics.median(getattr(p, wall) for p in setup)}
        if plain:
            out.update(
                pipeline_s=statistics.median(sum(getattr(p, wall) for p in it.procs)
                                             for it in plain),
                prepare_s=statistics.median(getattr(it.procs[0], wall) for it in plain),
                analyze_s=statistics.median(getattr(it.procs[1], wall) for it in plain),
                cpu_s=statistics.median(sum(getattr(p, cpu) for p in it.procs) for it in plain),
                peak_rss_mb=max(p.rss_mb for it in plain for p in it.procs),
            )
        return out

    end_to_end, measured = timings("wall_s", "cpu_s"), timings("wall", "cpu")
    layers, missing = ({}, [])
    if ok_runs and args.trace:
        layers, missing = layer_metrics(traced, end_to_end["pipeline_s"], inputs, checks)

    attempted, failed = len(checks.results), len(checks.failed)
    correct = ok_runs and failed == 0
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(runner.env),
        "inputs": {name: gen.sha256(path) for name, path in sorted(inputs.files.items())},
        "input_tokens": inputs.tokens,
        "samples": {
            "references": runner.references,
            "setup": [vars(p) for p in setup],
            "iterations": [{"traced": it.traced, "procs": [vars(p) for p in it.procs]}
                           for it in iterations],
        },
        "end_to_end": end_to_end, "end_to_end_as_measured": measured,
        "per_layer": layers, "absent": missing,
        "checks": checks.results, "fail_rate": failed / max(attempted, 1),
        "elapsed_s": time.perf_counter() - started,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced "
          f"repeats, setup x{len(setup)}, {inputs.tokens} input tokens")
    for name, ok, detail in checks.failed:
        print(f"# FAILED {name} {detail}")
    samples = {"setup_s": len(setup), "peak_rss_mb": sum(len(it.procs) for it in plain)}
    for name, unit in END_TO_END.items():
        if name in end_to_end:
            print(f"{name:14s} {end_to_end[name]:12.4f} {unit:3s} "
                  f"(n={samples.get(name, len(plain))}; as measured {measured[name]:.4f})")
    print(f"{'fail_rate':14s} {result['fail_rate']:12.4f}     ({failed}/{attempted} operations)")
    for name, value in layers.items():
        print(f"{name:48s} {value:14.6g}{'  absent' if name in missing else ''}")

    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in layers}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in end_to_end}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
