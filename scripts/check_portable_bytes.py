"""List the pipeline artifacts whose bytes depend on the CPU's code paths.

Runs the shipped fixture's ``prepare`` and ``analyze`` in child processes
under every combination of OPENBLAS_CORETYPE (unset, Haswell, Sandybridge)
and NPY_ENABLE_CPU_FEATURES (unset, X86_V2), and prints, per combination,
the files whose sha256 differs from the run with both variables unset.
Outputs go to a temporary directory; no artifact is changed.

    python3 scripts/check_portable_bytes.py

OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH build of
OpenBLAS, and is ignored otherwise.  The exit status is 0 when every file
matches, 1 when some differ, and 2 when a run fails.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "tests/data/fixture.conf"
VARIABLES = {
    "OPENBLAS_CORETYPE": (None, "Haswell", "Sandybridge"),
    "NPY_ENABLE_CPU_FEATURES": (None, "X86_V2"),
}


def run_pipeline(setting: dict[str, str | None], out: Path) -> dict[str, str]:
    """sha256 of every file that prepare and analyze write under `setting`."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update({k: v for k, v in setting.items() if v is not None})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"  # one reduction order per kernel
    for command in ("prepare", "analyze"):
        subprocess.run([sys.executable, "-m", "figlex.cli", command, "--config", CONFIG,
                        "--out", str(out)], cwd=ROOT, env=env, check=True,
                       capture_output=True, text=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def describe(setting: dict[str, str | None]) -> str:
    return " ".join(f"{k}={v or 'unset'}" for k, v in setting.items())


def main() -> int:
    settings = [dict(zip(VARIABLES, values)) for values in itertools.product(*VARIABLES.values())]
    with tempfile.TemporaryDirectory(prefix="figlex-portable-") as tmp:
        digests = []
        for i, setting in enumerate(settings):
            try:
                digests.append(run_pipeline(setting, Path(tmp) / f"run{i}"))
            except subprocess.CalledProcessError as exc:
                print(f"{describe(setting)}: run failed\n{exc.stderr}", file=sys.stderr)
                return 2
    reference = digests[0]
    moved: set[str] = set()
    for setting, digest in zip(settings[1:], digests[1:]):
        differ = sorted(name for name in reference.keys() | digest.keys()
                        if reference.get(name) != digest.get(name))
        moved.update(differ)
        print(f"{describe(setting)}: {len(differ)} of {len(reference)} files differ")
        for name in differ:
            print(f"  {name}")
    print(f"any setting: {len(moved)} of {len(reference)} files differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
