"""List the pipeline artifacts whose bytes depend on glibc's libm variant.

glibc picks its `exp`, `log`, `log2` and `pow` per CPU, an FMA variant
where the CPU has AVX2 and FMA, and the kernels and the Python stages call
them.  ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`` hides the two
features from glibc in one process, so it picks the variants that a CPU
without them would get.  This script runs the shipped fixture's
``prepare`` and ``analyze`` in child processes without the tunable, under
it, and under each of its two features alone, and prints, per setting,
the files whose sha256 differs from the run without it.  Outputs go to a
temporary directory; no artifact is changed.

    python3 scripts/check_portable_bytes.py

It first evaluates one `exp` whose last bit the variants round apart, in
a child without the tunable and in one under it.  Where the two agree, the
tunable has no effect on this host (no FMA, another C library, or a glibc
that ignores it), and the script says so instead of comparing.  The exit
status is 0 when every file matches, 1 when some differ, 2 when a run
fails and 3 when the tunable has no effect.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "tests/data/fixture.conf"
# glibc before 2.33 names the features AVX2_Usable and FMA_Usable
_LIBC, _VERSION = platform.libc_ver()
_SUFFIX = "_Usable" if _LIBC == "glibc" and tuple(map(int, _VERSION.split("."))) < (2, 33) else ""
HIDDEN = (f"-AVX2{_SUFFIX},-FMA{_SUFFIX}", f"-AVX2{_SUFFIX}", f"-FMA{_SUFFIX}")
# exp(PROBE) rounds to ...fe9dp+20 with glibc's FMA variant and to
# ...fe9cp+20 without it
PROBE = "import math; print(math.exp(14.494450730958675).hex())"


def child_env(hidden: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
    if hidden is not None:
        env["GLIBC_TUNABLES"] = f"glibc.cpu.hwcaps={hidden}"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def probe(hidden: str | None) -> str:
    return subprocess.run([sys.executable, "-c", PROBE], env=child_env(hidden), check=True,
                          capture_output=True, text=True).stdout.strip()


def run_pipeline(hidden: str | None, out: Path) -> dict[str, str]:
    """sha256 of every file that prepare and analyze write with `hidden`."""
    for command in ("prepare", "analyze"):
        subprocess.run([sys.executable, "-m", "figlex.cli", command, "--config", CONFIG,
                        "--out", str(out)], cwd=ROOT, env=child_env(hidden), check=True,
                       capture_output=True, text=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def describe(hidden: str | None) -> str:
    return f"GLIBC_TUNABLES=glibc.cpu.hwcaps={hidden}" if hidden else "GLIBC_TUNABLES unset"


def main() -> int:
    default, hidden = probe(None), probe(HIDDEN[0])
    print(f"probe: {default} with {describe(None)}, {hidden} with {describe(HIDDEN[0])}")
    if default == hidden:
        print("the tunable does not change libm's exp on this host, so this check cannot "
              "see the libm variant here", file=sys.stderr)
        return 3
    settings = (None, *HIDDEN)
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
