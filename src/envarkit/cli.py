"""Command-line front end: schmidt, envariance, derive, finegrain, gleason.

Reports are JSON by default (``--format text`` for a flat rendering) and
fully determined by the arguments, including the seed.  Exit codes: 0 on
success, 1 when the run is valid but the verdict is negative (not
envariant, derivation incomplete, audit violation), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, chain, cycle
from json.encoder import encode_basestring
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .derivation import (
    ProbTerm,
    RuleSet,
    StateExpr,
    TermSet,
    generate_terms,
    numeric_probabilities,
    saturate,
)
from .envariance import ENVAR_TOL, check_envariance, oracle_best_counter, phase_transform, swap_transform
from .errors import EnvarkitError, IncompleteDerivation, NoRationalFit, ParseError
from .finegrain import MAX_GRAIN, RationalWeights, born_via_counting, equal_branch_derivation, fine_grain
from .gleason import AUDIT_TOL, PowerOverlapFrame, QuadraticFrame, _check_audit_size, audit
from .schmidt import DEGENERACY_TOL, is_even, schmidt
from .states import LocalUnitary, _cells, load_state


# How ``json.dumps`` writes a non-finite float when ``allow_nan`` is on
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# A column of sibling texts as one template: ``(literals, flat)``.  With k =
# len(literals) - 1 placeholders, the text of value n is literals[0] +
# flat[n * k] + literals[1] + ... + flat[n * k + k - 1] + literals[k].
_Column = tuple[list[str], list[str]]


def _column(values: list, depth: int) -> _Column:
    """The texts of ``values``, siblings at nesting ``depth``, written together when
    they are of one kind.  Anything but a str, float, int, bool, None, list,
    tuple or dict (a subclass of a scalar type, say) is written by
    ``json.dumps``, which raises for what JSON cannot hold."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return _each(values, depth)
    kind = kinds.pop()
    write = _WRITERS.get(kind) or (
        _lists if issubclass(kind, (list, tuple)) else _dicts if issubclass(kind, dict) else _scalars
    )
    return write(values, depth)


def _each(values: list, depth: int) -> _Column:
    """The column of ``values`` of several kinds or shapes, each written on its own."""
    return ["", ""], [_joined(_column([value], depth), 0, 1, "") for value in values]


def _joined(column: _Column, start: int, stop: int, sep: str, open_: str = "", close: str = "") -> str:
    """The texts of values ``start`` to ``stop`` (``stop > start``) of a column, with
    ``sep`` between each two, after ``open_`` and before ``close``, in one join."""
    literals, flat = column
    k = len(literals) - 1
    if not k:
        return open_ + sep.join([literals[0]] * (stop - start)) + close
    after = [*literals[1:-1], literals[-1] + sep + literals[0]]  # the literal after each argument
    pieces = [open_ + literals[0], *chain.from_iterable(zip(flat[start * k : stop * k], cycle(after)))]
    pieces[-1] = literals[-1] + close  # the last value is followed by no other
    return "".join(pieces)


def _floats(values: list, depth: int) -> _Column:
    texts = list(map(float.__repr__, values))
    if not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(t, t) for t in texts]
    return ["", ""], texts


def _list_of(item: list[str], n: int, depth: int) -> list[str]:
    """The literals of a list at ``depth`` of ``n`` items with the literals ``item``,
    each item on its own line, in a few list operations whatever ``n``."""
    if not n:
        return ["[]"]
    inner, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "]"
    if len(item) == 1:  # a constant item
        return ["[" + inner + ("," + inner).join(item * n) + end]
    head, *middle, tail = item
    return ["[" + inner + head, *(middle + [tail + "," + inner + head]) * (n - 1), *middle, tail + end]


def _lists(values: list, depth: int) -> _Column:
    """Every item of the lists is written in one column.  Lists of one length take
    one template, their items' inlined; lists of several are joined one by
    one."""
    lengths = list(map(len, values))
    items = _column(list(chain.from_iterable(values)), depth + 1)
    shapes = set(lengths)
    if len(shapes) == 1:
        return _list_of(items[0], shapes.pop(), depth), items[1]
    inner = "\n" + "  " * (depth + 1)
    opener, sep, closer = "[" + inner, "," + inner, "\n" + "  " * depth + "]"
    ends = list(accumulate(lengths))
    return ["", ""], [_joined(items, end - n, end, sep, opener, closer) if n else "[]" for n, end in zip(lengths, ends)]


def _key(key) -> str:
    """A dict key's text: a str, or an int, float, bool or None as ``json.dumps`` writes it, quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring(key)


def _dicts(values: list, depth: int) -> _Column:
    """Dicts of one key sequence take one template, each key's values written in
    one column and their template inlined; dicts of several are written one by
    one."""
    shapes = list(map(tuple, values))
    if len(set(shapes)) > 1:
        return _each(values, depth)
    if not shapes[0]:
        return ["{}"], []
    inner = "\n" + "  " * (depth + 1)
    literals, flats = ["{"], []
    for n, key in enumerate(shapes[0]):
        key_literals, flat = _column(list(map(itemgetter(key), values)), depth + 1)
        literals[-1] += ("," if n else "") + inner + _key(key) + ": " + key_literals[0]
        literals += key_literals[1:]
        flats.append((flat, len(key_literals) - 1))
    literals[-1] += "\n" + "  " * depth + "}"
    if len(values) == 1:
        return literals, list(chain.from_iterable(flat for flat, _ in flats))
    strides = (flat[j::k] for flat, k in flats for j in range(k))  # each placeholder's arguments
    return literals, list(chain.from_iterable(zip(*strides)))


def _scalars(values: list, depth: int) -> _Column:
    return ["", ""], [json.dumps(value, ensure_ascii=False) for value in values]


_WRITERS = {
    str: lambda values, depth: (["", ""], list(map(encode_basestring, values))),
    float: _floats,
    int: lambda values, depth: (["", ""], list(map(int.__repr__, values))),
    bool: lambda values, depth: (["", ""], ["true" if value else "false" for value in values]),
    type(None): lambda values, depth: (["", ""], ["null"] * len(values)),
    list: _lists,
    tuple: _lists,
    dict: _dicts,
}


def _render(report: dict, fmt: str) -> str:
    """``report`` as JSON, byte for byte ``json.dumps(report, indent=2,
    ensure_ascii=False)`` and a newline, or as ``key: value`` lines.

    CPython's C encoder runs only without ``indent``, so the JSON is put
    together here one nesting level at a time (``_column``): each level's
    strings go through the C ``encode_basestring`` and its numbers through
    ``float.__repr__`` and ``int.__repr__``, mapped over the level; its
    lists of one length and its dicts of one key sequence share one
    template, their items' templates inlined; and the text is made in one
    join.
    """
    if fmt == "json":
        return _joined(_column([report], 0), 0, 1, "", close="\n")
    lines = []
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value, ensure_ascii=False)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _parse_transform(spec: str, basis: np.ndarray) -> LocalUnitary:
    """The unitary a ``swap:i,j`` or ``phase:b1,b2,...`` spec names in ``basis``."""
    kind, _, rest = spec.partition(":")
    parse = {"swap": int, "phase": float}.get(kind)
    if parse is None:
        raise ParseError(f"transform spec must be 'swap:i,j' or 'phase:b1,b2,...', got {spec!r}")
    try:
        values = tuple(parse(x) for x in rest.split(","))
        if kind == "swap":
            i, j = values
    except ValueError as exc:
        raise ParseError(f"bad transform spec {spec!r}: {exc}") from exc
    if kind == "swap":
        return swap_transform(i, j, basis)
    return phase_transform(tuple(range(1, len(values) + 1)), values, basis)


def _parse_swaps(spec: str) -> list[tuple[int, int]]:
    try:
        return [tuple(int(x) for x in pair.split(",")) for pair in spec.split(";")]
    except ValueError as exc:
        raise ParseError(f"bad swap schedule {spec!r}: {exc}") from exc


def _cmd_schmidt(args) -> tuple[dict, int]:
    state = load_state(args.state)
    dec = schmidt(state)
    tol = args.tol if args.tol is not None else DEGENERACY_TOL
    report = {
        "lambda": [float(v) for v in dec.coefficients],
        "rank": dec.rank,
        "even": is_even(dec, tol),
        "s_vecs": _cells(dec.system_vectors.T),
        "e_vecs": _cells(dec.env_vectors.T),
    }
    return report, 0


def _cmd_envariance(args) -> tuple[dict, int]:
    state = load_state(args.state)
    dec = schmidt(state)
    u_s = _parse_transform(args.transform, dec.system_vectors)
    tol = args.tol if args.tol is not None else ENVAR_TOL
    verdict = check_envariance(state, u_s, tol=tol, decomposition=dec)
    # a verdict without a counter already carries the oracle's residual
    if verdict.counter is None:
        oracle_residual = verdict.residual
    else:
        _, oracle_residual = oracle_best_counter(state, u_s)
    report = {
        "envariant": verdict.envariant,
        "residual": verdict.residual,
        "counter": _cells(verdict.counter.mat) if verdict.counter else None,
        "oracle_residual": oracle_residual,
    }
    return report, 0 if verdict.envariant else 1


def _derivation_report(term_set: TermSet, rules: RuleSet) -> dict:
    state = term_set.base_state
    store = saturate(term_set, rules)
    classes, trace = store._by_name()
    report = {
        "classes": classes,
        "trace": [{"rule": rule, "merged": [left, right]} for rule, left, right in trace],
    }
    try:
        probs = numeric_probabilities(store, state, rules, term_set.decomposition)
        report["probabilities"] = [str(p) for _, p in probs]
        report["probabilities_float"] = [float(p) for _, p in probs]
    except IncompleteDerivation as exc:
        report["probabilities"] = None
        report["incomplete"] = str(exc)
    return report


def _cmd_derive(args) -> tuple[dict, int]:
    state = load_state(args.state)
    dec = schmidt(state)
    rank = dec.rank
    swaps = _parse_swaps(args.swaps) if args.swaps is not None else [(k, k + 1) for k in range(1, rank)]
    rules = RuleSet()
    for name in args.disable or []:
        rules = rules.without(name)
    term_set = generate_terms(state, swaps, dec)
    report = _derivation_report(term_set, rules)
    if args.ablate:
        ablations = []
        left = ProbTerm("S", 1, StateExpr())
        right = ProbTerm("S", 2, StateExpr())
        for name in ("PAIRING", "ENV_LOCALITY", "SYS_LOCALITY", "STATE_FUNCTION"):
            store = saturate(term_set, rules.without(name))
            # a rank-1 state has no second branch to compare with
            same = store.same_class(left, right) if rank > 1 else None
            ablations.append({"disabled": name, "s1_equals_s2": same})
        report["ablations"] = ablations
    return report, 0 if report["probabilities"] is not None else 1


def _cmd_finegrain(args) -> tuple[dict, int]:
    try:
        fracs = [Fraction(part) for part in args.weights.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weights {args.weights!r}: {exc}") from exc
    # before any grain is formed: its digits could exceed what int-to-str converts
    if any(f.denominator > MAX_GRAIN for f in fracs):
        raise NoRationalFit(f"a weight's denominator exceeds bound {MAX_GRAIN}")
    weights = RationalWeights.from_fractions(fracs)
    # refuses a grain above MAX_GRAIN before fine_grain allocates it
    probs = born_via_counting(weights)
    fine = fine_grain(weights, len(weights.numerators))
    _, store, _ = equal_branch_derivation(weights.denominator)
    lam_sq = [float(v) ** 2 for v in schmidt(fine.state).coefficients]
    expected = sorted((float(p) for p in probs), reverse=True)
    report = {
        "weights": [str(f) for f in weights.fractions],
        "numerators": list(weights.numerators),
        "denominator": weights.denominator,
        "probabilities": [str(p) for p in probs],
        "probabilities_float": [float(p) for p in probs],
        "branch_map": [list(block) for block in fine.branch_map],
        "schmidt_check": {
            "lambda_squared": lam_sq,
            "max_abs_error": max(abs(a - b) for a, b in zip(sorted(lam_sq, reverse=True), expected)),
        },
        "trace_length": len(store.trace),
    }
    return report, 0


def _cmd_gleason(args) -> tuple[dict, int]:
    _check_audit_size(args.dim, args.trials, args.seed)
    if args.kind == "quadratic":
        rng = np.random.default_rng(args.seed)
        g = rng.standard_normal((args.dim, args.dim)) + 1j * rng.standard_normal((args.dim, args.dim))
        rho = g @ g.conj().T
        frame = QuadraticFrame(rho / np.trace(rho).real)
    elif args.kind.startswith("power:"):
        try:
            alpha = float(args.kind.partition(":")[2])
        except ValueError as exc:
            raise ParseError(f"bad frame kind {args.kind!r}") from exc
        w = np.zeros(args.dim, dtype=complex)
        w[0] = 1.0
        frame = PowerOverlapFrame(w, alpha)
    else:
        raise ParseError(f"frame kind must be 'quadratic' or 'power:ALPHA', got {args.kind!r}")
    tol = args.tol if args.tol is not None else AUDIT_TOL
    report = audit(frame, args.dim, args.trials, args.seed, tol=tol).as_dict()
    report["seed"] = args.seed
    return report, 0 if report["verdict"] == "CONSISTENT" else 1


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` on a usage error, so ``main`` reports it like any other
    input error; subparsers are built from the same class.  ``-h`` still exits."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="envarkit",
        description="Envariance checks, probability-equality derivations, "
        "rational Born weights and frame-function audits.",
    )
    # no default: ``main`` puts the ENVARKIT_SEED value into the namespace first
    parser.add_argument("--seed", type=int, help="default: ENVARKIT_SEED, else 0")
    parser.add_argument(
        "--tol", type=float, default=None,
        help="schmidt: the coefficient spread 'even' allows; envariance: the off-block entries "
        "of S^H U S, the support leak and the restored residual, not the reported oracle "
        "residual; gleason: the largest basis-sum deviation; derive, finegrain: unused",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="decompose a state file")
    p.add_argument("state")

    p = sub.add_parser("envariance", help="decide envariance of a transform")
    p.add_argument("state")
    p.add_argument("transform", help="'swap:i,j' or 'phase:b1,b2,...' in the Schmidt system basis")

    p = sub.add_parser("derive", help="run the probability-equality engine")
    p.add_argument("state")
    p.add_argument("--swaps", default=None, help="schedule like '1,2;2,3' (default: adjacent)")
    p.add_argument("--disable", action="append", metavar="RULE", help="disable a rule by name")
    p.add_argument("--ablate", action="store_true", help="also report leave-one-out rule ablations")

    p = sub.add_parser("finegrain", help="count equal sub-branches for rational weights")
    p.add_argument("weights", help="comma-separated fractions like '1/3,2/3'")

    p = sub.add_parser("gleason", help="audit a frame function on random bases")
    p.add_argument("kind", help="'quadratic' or 'power:ALPHA'")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: construction costs far more than a parse
    return build_parser()


def _env_seed() -> int:
    env_seed = os.environ.get("ENVARKIT_SEED", "0")
    try:
        return int(env_seed)
    except ValueError as exc:
        raise ParseError(f"ENVARKIT_SEED must be an integer, got {env_seed!r}") from exc


_COMMANDS = {
    "schmidt": _cmd_schmidt,
    "envariance": _cmd_envariance,
    "derive": _cmd_derive,
    "finegrain": _cmd_finegrain,
    "gleason": _cmd_gleason,
}


@contextmanager
def _collector_paused():
    """Run the block with the cycle collector off, and turn it back on after if it
    was on.

    A report holds no reference cycle and is freed before the block ends,
    but with the collector on, each full collection while it is built
    traverses every container alive: a ``derive`` report holds two per
    merge, 4M^2 in all at grain M.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    try:
        # read on every call, before parsing; an explicit --seed replaces it
        args = _parser().parse_args(argv, argparse.Namespace(seed=_env_seed()))
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
            raise ParseError(f"--tol must be a finite nonnegative number, got {args.tol}")
        with _collector_paused():
            report, code = _COMMANDS[args.command](args)
            text = _render(report, args.format)
            del report
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (EnvarkitError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
