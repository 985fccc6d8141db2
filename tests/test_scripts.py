"""The byte-identity oracle keeps working: `scripts/digest_outputs.py` runs
the pipeline on the fixture and the two benchmark workloads (about 2.5 s)
and prints one `<sha256>  <workload>/<file>` line per output file."""

import re
from pathlib import Path

from conftest import run_python

ROOT = Path(__file__).parent.parent


def test_digest_outputs_lists_each_file_once_per_workload():
    proc = run_python(str(ROOT / "scripts" / "digest_outputs.py"))
    assert proc.returncode == 0, proc.stderr
    paths = []
    for line in proc.stdout.splitlines():
        match = re.fullmatch(r"[0-9a-f]{64}  (\w+)/([\w.]+)", line)
        assert match, line
        paths.append(match.groups())
    assert len(paths) == len(set(paths))
    files: dict[str, set[str]] = {}
    for workload, name in paths:
        files.setdefault(workload, set()).add(name)
    assert sorted(files) == ["few_long_posts", "fixture", "many_short_posts"]
    assert files["fixture"] == files["many_short_posts"] == files["few_long_posts"]
    assert "report.json" in files["fixture"]
