"""Self-check of the benchmark's own logic.

    python3 perfbench/selfcheck.py

1. the input generator is a pure function of (workload, seed);
2. self time is duration minus child coverage, on a hand-built span tree;
3. the tracer nests spans, replaces functions by identity and reports a
   missing function as absent;
4. BENCHMARK.json names exactly the metrics run.py prints;
5. every workload runs end to end at smoke size, untraced and traced, with
   every output check passing;
6. outside a checkout (only BENCHMARK.json and perfbench/) a run fails fast.

Exits non-zero on the first failed check.  Takes a few minutes: the
fixture runs at full size because its planted signals need full training.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}",
          flush=True)
    if not ok:
        sys.exit(1)


def generator_is_seeded() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for workload in gen.SPECS:
            digests = []
            for i, seed in enumerate((3, 3, 4)):
                files = gen.generate(workload, seed, Path(tmp) / f"{workload}{i}", smoke=True)
                digests.append({role: gen.sha256(path) for role, path in files.items()})
            check(f"{workload}: same seed, same input bytes", digests[0] == digests[1])
            check(f"{workload}: another seed, another corpus",
                  digests[0]["corpus"] != digests[2]["corpus"])


def self_time_on_hand_built_tree() -> None:
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],      # overlaps b, as spans from two threads do
        ["b", 3.0, 6.0, 0],
        ["c", 7.0, 9.0, 0],
        ["d", 2.0, 3.0, 1],
    ]
    got = tracing.self_times(spans)
    check("self time = duration - union of child spans",
          all(abs(g - w) < 1e-12 for g, w in zip(got, [3.0, 2.0, 3.0, 2.0, 1.0])), str(got))


def tracer_wraps_by_identity() -> None:
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: time.sleep(0.001))
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    check("spans nest under their caller", [(s[0], s[3]) for s in tracer.spans]
          == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)])

    sys.path.insert(0, str(run.ROOT / "src"))
    import figlex.cli
    import figlex.matcher
    import figlex.stats

    layers = tracing.LAYERS
    tracing.LAYERS = {"matcher": ("find_matches", "build_matcher"), "stats": ("no_such_function",)}
    try:
        absent = tracing.Tracer().install()
    finally:
        tracing.LAYERS = layers
    check("a missing function is reported absent", absent == ["stats.no_such_function"],
          str(absent))
    check("`from .x import y` bindings are replaced too",
          figlex.cli.build_matcher is figlex.matcher.build_matcher
          and figlex.stats.find_matches is figlex.matcher.find_matches
          and hasattr(figlex.stats.find_matches, "__wrapped__"))


def metric_names_match() -> None:
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    check("BENCHMARK.json per_layer == run.per_layer_metrics()",
          declared == run.per_layer_metrics())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    check("BENCHMARK.json end_to_end == run.END_TO_END", declared == run.END_TO_END)
    check("BENCHMARK.json workloads are run.WORKLOADS",
          {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS))


def smoke_runs() -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            names = BENCHMARK["per_layer" if trace else "end_to_end"]
            check(f"{workload} --trace {trace}: correct, every metric printed",
                  proc.returncode == 0 and last.get("correct") is True
                  and last.get("failed") == 0
                  and set(last["metrics"]) == {m["name"] for m in names},
                  proc.stdout[-2000:] + proc.stderr[-2000:])
            result = json.loads((run.WORK / workload / "result.json").read_text("utf-8"))
            if result["absent"]:
                print(f"  note: absent in {workload}: {', '.join(result['absent'])}")


def refuses_outside_checkout() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        proc = subprocess.run([*BENCHMARK["command"], "--workload", "fixture", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check("without the sources: non-zero exit, no result line",
              proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout + proc.stderr)


if __name__ == "__main__":
    run.WORK.mkdir(parents=True, exist_ok=True)
    generator_is_seeded()
    self_time_on_hand_built_tree()
    tracer_wraps_by_identity()
    metric_names_match()
    refuses_outside_checkout()
    smoke_runs()
    print("selfcheck: all passed")
