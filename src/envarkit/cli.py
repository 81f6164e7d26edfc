"""Command-line front end: schmidt, envariance, derive, finegrain, gleason.

Reports are JSON by default (``--format text`` for a flat rendering) and
fully determined by the arguments, including the seed.  Exit codes: 0 on
success, 1 when the run is valid but the verdict is negative (not
envariant, derivation incomplete, audit violation), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
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


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
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
    report = {
        "classes": [[str(t) for t in cls] for cls in store.classes()],
        "trace": [
            {"rule": rec.rule, "merged": [str(rec.left), str(rec.right)]}
            for rec in store.trace
        ],
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


def main(argv=None) -> int:
    try:
        # read on every call, before parsing; an explicit --seed replaces it
        args = _parser().parse_args(argv, argparse.Namespace(seed=_env_seed()))
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
            raise ParseError(f"--tol must be a finite nonnegative number, got {args.tol}")
        report, code = _COMMANDS[args.command](args)
        text = _render(report, args.format)
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
