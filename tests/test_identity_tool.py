"""tools/identity.py: the CLI outputs a refactor must leave byte-identical."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def files_of(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_write_identical_trees(tmp_path):
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([sys.executable, str(TOOL), str(out), "--size", "tiny"], check=True)
        trees.append(files_of(out))
    first, second = trees
    assert first == second
    # 4 generated sets and the held-out one; 2 sets x 4 planners x 2
    # frameworks built, each a filter, a table and a report, and queried
    assert len(first) == 5 + 16 * 4
    reports = [name for name in first if name.endswith(".report.json")]
    assert len(reports) == 16
    assert not any(b'"timings"' in first[name] for name in reports)
    assert all(first[name].endswith(b"\n") and first[name].startswith(b"prefix,regions")
               for name in first if name.endswith(".dp.csv"))


def test_refuses_an_existing_directory(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True)
    assert done.returncode == 2 and "exists" in done.stderr
    assert list(tmp_path.iterdir()) == []
