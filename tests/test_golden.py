"""Golden corpus: the exact bytes of every command line in golden/commands.txt.

Each line runs in-process; its exit code and the sha256 of its stdout, its
stderr and any file it names with ``--out`` or ``--rules-out`` must equal
the record in golden.json.  Regenerate that file only on purpose:

    DIVSEL_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py

and say in the change log which lines changed and why.  Float output
depends on the Python and numpy builds, so golden.json records both.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
from pathlib import Path
from unittest import mock

import numpy as np

from divsel.cli import main

HERE = Path(__file__).parent
DATA = HERE / "golden"
GOLDEN = HERE / "golden.json"
OUTPUT_FLAGS = ("--out", "--rules-out")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help text to the terminal width, which it reads from COLUMNS
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _make_inputs(root: Path) -> None:
    """Pools a, b, c and bad, and train_a.txt, in ``root``."""
    for name in ("a", "b", "c"):
        shutil.copy(DATA / f"{name}.json", root / f"{name}.json")
        assert _run(["synth", "--config", f"{name}.json", "--out-dir", name])[0] == 0
    # pool b: model 3 is labels-only
    manifest = json.loads((root / "b" / "manifest.json").read_text())
    (root / "b" / manifest["models"][3]["probs"]).unlink()
    manifest["models"][3]["probs"] = None
    (root / "b" / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    # pool bad: pool a with a NaN row in model 0's probability file
    shutil.copytree(root / "a", root / "bad")
    probs = root / "bad" / "model_0_probs.csv"
    rows = probs.read_text().splitlines()
    rows[3] = ",".join(["nan"] * len(rows[3].split(",")))
    probs.write_text("\n".join(rows) + "\n")
    (root / "train_a.txt").write_text("".join(f"{i}\n" for i in range(0, 600, 3)))


def _record(argv: list[str]) -> dict:
    code, out, err = _run(argv)
    rec = {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode())}
    for flag in OUTPUT_FLAGS:
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            rec[flag[2:]] = _sha(path.read_bytes()) if path.is_file() else None
    return rec


def _command_lines() -> list[str]:
    lines = (DATA / "commands.txt").read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _make_inputs(tmp_path)
    got = {line: _record(shlex.split(line)) for line in _command_lines()}
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if os.environ.get("DIVSEL_REGEN_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps({**versions, "commands": got}, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    changed = [line for line in got if golden["commands"].get(line) != got[line]]
    stale = [line for line in golden["commands"] if line not in got]
    assert not changed and not stale, (
        f"golden output changed (recorded with python {golden['python']}, numpy "
        f"{golden['numpy']}; running {versions['python']}, {versions['numpy']}):\n"
        + "\n".join(changed + [f"(no longer run) {line}" for line in stale]))
