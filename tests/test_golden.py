"""Golden CLI corpus: each manifest entry's exit code, stdout hash and error class.

Every entry of ``golden/manifest.json`` runs in-process through ``cli.main``
and must reproduce the recorded exit code, the sha256 of its stdout (and of
its ``--out`` file), and for exit 2 the class of the error on stderr.  Each
entry runs with warnings turned into errors, and its stderr must be exactly
one line on exit 2 and empty otherwise.  In an argv, ``{states}`` names
``golden/states``, written by ``golden/make_states.py``, and ``{out}`` a
scratch report path.  An entry's ``env`` sets environment variables for its
run; ``ENVARKIT_SEED`` is unset otherwise.

Run as a script, the module reruns every entry's argv, rewrites the
recorded results in the manifest, and prints the names of the entries whose
results changed, were added or were removed since the last commit (an entry
is added by writing only its inputs into the manifest):

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest.mock import patch

import pytest

from envarkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
INPUTS = ("name", "argv", "env")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_entry(entry: dict, out_path: Path) -> dict:
    """The results of one entry's run, keyed as in the manifest."""
    argv = [arg.format(states=GOLDEN / "states", out=out_path) for arg in entry["argv"]]
    env = {k: v for k, v in os.environ.items() if k != "ENVARKIT_SEED"}
    env.update(entry.get("env", {}))
    stdout, stderr = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env, clear=True), redirect_stdout(stdout), redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a stderr line of its own
            code = main(argv)
    # an input error is the one line ``Class: message``; anything else writes nothing
    assert len(stderr.getvalue().splitlines()) == int(code == 2), stderr.getvalue()
    result = {"exit": code, "stdout_sha256": _sha256(stdout.getvalue())}
    if "{out}" in entry["argv"]:
        result["out_sha256"] = _sha256(out_path.read_text(encoding="utf-8"))
    if code == 2:
        result["stderr_class"] = stderr.getvalue().partition(":")[0]
    return result


def _entries() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _results(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in INPUTS}


@pytest.mark.parametrize("entry", _entries(), ids=lambda entry: entry["name"])
def test_golden_entry(entry, tmp_path):
    assert run_entry(entry, tmp_path / "report.json") == _results(entry)


def test_golden_order_independence(tmp_path):
    # the parser is shared by every call in a process: no entry may depend on those before it
    entries = _entries()
    forward = {e["name"]: run_entry(e, tmp_path / "report.json") for e in entries}
    backward = {e["name"]: run_entry(e, tmp_path / "report.json") for e in reversed(entries)}
    assert forward == backward == {e["name"]: _results(e) for e in entries}


def _committed_entries() -> list[dict]:
    """The manifest as of the last commit, or as on disk outside a git checkout."""
    try:
        shown = subprocess.run(
            ["git", "show", "HEAD:./manifest.json"],
            cwd=GOLDEN, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return _entries()
    return json.loads(shown.stdout)


def record() -> None:
    before = {entry["name"]: _results(entry) for entry in _committed_entries()}
    entries = []
    with TemporaryDirectory() as scratch:
        for entry in _entries():
            inputs = {k: entry[k] for k in INPUTS if k in entry}
            entries.append(inputs | run_entry(entry, Path(scratch) / "report.json"))
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    after = {entry["name"]: _results(entry) for entry in entries}
    for label, names in (
        ("changed", [n for n in after if n in before and after[n] != before[n]]),
        ("added", [n for n in after if n not in before]),
        ("removed", [n for n in before if n not in after]),
    ):
        print(f"{label}: {' '.join(names) or '-'}")


if __name__ == "__main__":
    record()
