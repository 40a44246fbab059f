"""Golden CLI outputs: every verb, replayed in-process through main(argv).

``cli_golden.json`` holds named inputs and, for each case, the argv (input
names stand for paths to files the test writes), optional stdin and
environment, the exit code and stdout (or its SHA-256 when stdout is over
2 KB). A change that keeps the CLI's behavior leaves every case passing.
After an intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from resichain.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
INLINE_LIMIT = 2048


def _materialize(inputs: dict, where: Path) -> dict:
    """Write each named input under ``where``; returns name -> path. An
    input with neither "json" nor "dir" names a path that does not exist."""
    paths = {}
    for name, spec in inputs.items():
        path = where / name
        if "json" in spec:
            path.write_text(json.dumps(spec["json"]))
        elif "dir" in spec:
            path.mkdir()
            for fname, data in spec["dir"].items():
                (path / fname).write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def replay(case: dict, paths: dict) -> tuple:
    """(exit code, stdout) of one case; stdin and the environment are
    restored afterwards."""
    argv = [paths.get(a, a) for a in case["argv"]]
    env = {"RESICHAIN_MAX_SIZE": None, **case.get("env", {})}
    saved_env = {k: os.environ.get(k) for k in env}
    saved_stdin = sys.stdin
    out = io.StringIO()
    try:
        for k, v in env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        sys.stdin = io.StringIO(case.get("stdin", ""))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


def _expected_stdout(stdout: str) -> dict:
    if len(stdout.encode()) > INLINE_LIMIT:
        return {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    return {"stdout": stdout}


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


RECORD = _load()
CASES = RECORD["cases"]


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    return _materialize(RECORD["inputs"], tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_the_golden_record(case, input_paths):
    code, stdout = replay(case, input_paths)
    assert code == case["code"]
    assert _expected_stdout(stdout) == {
        k: case[k] for k in ("stdout", "sha256") if k in case
    }


def record() -> None:
    """Re-run every case and rewrite its exit code and stdout."""
    import tempfile

    data = _load()
    with tempfile.TemporaryDirectory() as tmp:
        paths = _materialize(data["inputs"], Path(tmp))
        for case in data["cases"]:
            code, stdout = replay(case, paths)
            case.pop("stdout", None)
            case.pop("sha256", None)
            case["code"] = code
            case.update(_expected_stdout(stdout))
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
