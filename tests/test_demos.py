"""Golden demo outputs: each script in ``demos/`` runs in a fresh
interpreter that imports resichain from this checkout, and its stdout must
match ``demo_golden.json`` byte for byte. After an intended output change,
re-record with

    PYTHONPATH=src python tests/test_demos.py

and review the diff of the JSON file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resichain

GOLDEN = Path(__file__).with_name("demo_golden.json")
DEMOS = sorted(Path(__file__).parents[1].joinpath("demos").glob("*.py"))


def run_demo(path: Path) -> str:
    """stdout of one demo; a demo that fails fails the caller."""
    env = dict(os.environ, PYTHONPATH=str(Path(resichain.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_output_matches_the_golden_record(path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_demo(path) == golden[path.name]


def record() -> None:
    """Re-run every demo and rewrite the golden record."""
    golden = {path.name: run_demo(path) for path in DEMOS}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
