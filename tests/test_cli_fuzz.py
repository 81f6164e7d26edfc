"""Grammar fuzzer for the CLI's exit-code contract.

Hypothesis draws argv from the CLI grammar: every command and flag, valid
values and malformed ones (NaN, inf, negative, empty, non-numeric, wrong
arity), and the golden state files.  Every run goes in-process through
``cli.main`` with warnings turned into errors, as the golden harness runs.
The contract: ``main`` returns 0, 1 or 2 and never raises; on 2 stderr is
exactly one line, ``Class: message``, whose class is an ``EnvarkitError``
subclass or an ``OSError``; on 0 or 1 stderr is empty.

Runs stay small: grains are at most 64 and a valid ``gleason`` run audits
at most 50 bases.
"""

from __future__ import annotations

import builtins
import io
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarkit import errors
from envarkit.cli import main
from envarkit.derivation import RULE_NAMES

GOLDEN_STATES = Path(__file__).parent / "golden" / "states"
STATES = sorted(str(path) for path in GOLDEN_STATES.glob("*.json"))
MISSING = str(GOLDEN_STATES / "missing.json")
SCRATCH = "{scratch}"  # a directory, made per module run

DIGITS = "9" * 5000  # past the 4300 digits Python converts between int and str
# each slot's valid values, then its malformed ones; one value in eight is malformed
SLOTS = {
    "tol": (["0", "1e-12", "1e-9", "0.5", "1", "2"], ["-1", "nan", "inf", "-inf", "1e400", "", "x"]),
    "seed": (["0", "1", "7", "99999999999999999999"], ["-1", "", "x", "1.5", "nan", "inf", DIGITS]),
    "format": (["json", "text"], ["xml", ""]),
    "out": ([f"{SCRATCH}/report.json", ""], [SCRATCH, f"{MISSING}/report.json"]),
    "state": (STATES, [MISSING, SCRATCH]),
    "transform": (
        ["swap:1,2", "swap:2,3", "swap:2,1", "phase:0.5,1", "phase:0,0,0,0", "phase:1,2,3"],
        ["swap:1,1", "swap:0,1", "swap:1,9", "swap:-1,2", "swap:1", "swap:1,2,3", "swap:", "swap:a,b",
         f"swap:1,{DIGITS}", "phase:nan,0", "phase:inf", "phase:1e400", "phase:", "phase:1,2,3,4,5,6,7,8,9",
         "rot:1", ""],
    ),
    "swaps": (
        ["1,2", "1,2;2,3", "2,3;1,2", "1,2;1,2", "3,4", "2,1"],
        ["", ";", "1", "1,2,3", "0,1", "1,1", "1,9", "-1,2", "a,b", "1,2;", "nan,1", f"1,{DIGITS}"],
    ),
    "rule": ([*RULE_NAMES, "pairing"], ["BOGUS", ""]),
    "weights": (
        ["1/2,1/2", "1/3,2/3", "1", "0,1", "1/64,63/64", "0.5,0.5", "1/4,1/4,1/2", "5/12,7/12"],
        ["1/1001,1000/1001", "1/2,1/3", "-1/2,3/2", "1/0", "nan", "inf", "", "x", "1/2,,1/2",
         "1/999,1/998", f"1/{DIGITS}", "1e-5000,1", "1e5000", "-1e5000,1"],
    ),
    "kind": (
        ["quadratic", "power:2", "power:0.5"],
        ["power:nan", "power:inf", "power:-1", "power:", "power:x", "cubic", ""],
    ),
    "dim": (["3", "4", "16", "64"], ["65", "2", "0", "-1", "", "x", "nan", DIGITS]),
    "trials": (["1", "7", "50"], ["0", "-1", "1000001", "", "x", "nan", DIGITS]),
}


def value(draw, slot: str) -> str:
    valid, malformed = SLOTS[slot]
    return draw(st.sampled_from(malformed if draw(st.integers(0, 7)) == 7 else valid))


@st.composite
def commands(draw) -> list[str]:
    command = draw(st.sampled_from(["schmidt", "envariance", "derive", "finegrain", "gleason"]))
    if command in ("schmidt", "envariance", "derive"):
        argv = [command, value(draw, "state")]
    if command == "envariance":
        argv.append(value(draw, "transform"))
    if command == "derive":
        if draw(st.booleans()):
            argv += ["--swaps", value(draw, "swaps")]
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--disable", value(draw, "rule")]
        if draw(st.booleans()):
            argv.append("--ablate")
    if command == "finegrain":
        argv = [command, value(draw, "weights")]
    if command == "gleason":
        argv = [command, value(draw, "kind"), "--trials", value(draw, "trials")]
        if draw(st.booleans()):
            argv += ["--dim", value(draw, "dim")]
    return argv


@st.composite
def argvs(draw) -> tuple[list[str], dict[str, str]]:
    argv = []
    for flag in ("tol", "seed", "format", "out"):
        if draw(st.booleans()):
            argv += [f"--{flag}", value(draw, flag)]
    argv += draw(commands())
    arity = draw(st.integers(0, 7))  # 6: drop a word, 7: add one
    if arity == 6:
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif arity == 7:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["extra", "1,2", "-x", "--"])))
    env = {"ENVARKIT_SEED": value(draw, "seed")} if draw(st.integers(0, 7)) == 7 else {}
    return argv, env


def _is_reportable(name: str) -> bool:
    cls = getattr(errors, name, None) or getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, (errors.EnvarkitError, OSError))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz"))


@given(drawn=argvs())
@settings(max_examples=400, deadline=None)
def test_main_keeps_the_exit_code_contract(scratch, drawn):
    argv, env = drawn
    argv = [arg.replace(SCRATCH, scratch) for arg in argv]
    environ = {k: v for k, v in os.environ.items() if k != "ENVARKIT_SEED"} | env
    stdout, stderr = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, environ, clear=True), redirect_stdout(stdout), redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert len(lines) == 1, (argv, lines)
        assert _is_reportable(lines[0].partition(":")[0]), (argv, lines)
    else:
        assert lines == [], (argv, lines)
