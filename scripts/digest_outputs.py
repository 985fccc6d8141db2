"""Print the sha256 of every file the pipeline writes, per workload.

Runs ``prepare``, ``analyze``, ``report --format json`` and
``report --format csv`` in child processes on the shipped fixture and on
the benchmark's two workloads, whose inputs ``perfbench/gen.py`` makes at
seed 1.  Everything goes to a temporary directory; no file in the
repository is changed.  It prints one ``sha256  workload/file`` line per
output file, so two revisions of the program compare with one diff:

    python3 scripts/digest_outputs.py > before.txt
    (check out the other revision)
    python3 scripts/digest_outputs.py > after.txt
    diff before.txt after.txt

The exit status is 0 when every run succeeds and 2 when one fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CONFIG = "tests/data/fixture.conf"
WORKLOADS = ("many_short_posts", "few_long_posts")
SEED = 1
COMMANDS = (("prepare",), ("analyze",), ("report", "--format", "json"),
            ("report", "--format", "csv"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"  # one reduction order per kernel
    return env


def run(argv: list[str], cwd: Path) -> None:
    subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(), check=True,
                   capture_output=True, text=True)


def digest_run(name: str, config: str, cwd: Path, out: Path) -> list[str]:
    """`sha256  name/file` of every file the four commands write into `out`."""
    for command in COMMANDS:
        run(["-m", "figlex.cli", *command, "--config", config, "--out", str(out)], cwd)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {name}/{p.name}"
            for p in sorted(out.iterdir())]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="figlex-digest-") as tmp:
        runs = [("fixture", FIXTURE_CONFIG, ROOT)]
        lines: list[str] = []
        try:
            for workload in WORKLOADS:
                inputs = Path(tmp) / workload
                run([str(ROOT / "perfbench" / "gen.py"), workload, str(SEED), str(inputs)], ROOT)
                runs.append((workload, "bench.conf", inputs))
            for name, config, cwd in runs:
                lines += digest_run(name, config, cwd, Path(tmp) / "out" / name)
        except subprocess.CalledProcessError as exc:
            print(f"{' '.join(exc.cmd[1:])}: run failed\n{exc.stderr}", file=sys.stderr)
            return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
