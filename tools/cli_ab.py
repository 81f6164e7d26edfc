"""Same-process A/B of two source trees over the cli-corpus workload's argvs.

    python tools/cli_ab.py PARENT_SRC CHANGE_SRC --seed 31 --reps 15

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding an
``envarkit`` package.  Each is imported under a package name of its own,
so both run in one interpreter on one numpy, and the host's slow and fast
spells fall on both alike.  The argvs, and the state files they name, are
the ones ``bench/workloads.py`` builds for cli-corpus at the seed, written
to a temporary directory.

Every argv first runs once on each tree: the two must give the same exit
code and stdout, else the tool names the first argv that differs and exits
1.  Then the argvs run ``--reps`` times on each tree, the trees taking
turns at going first, each call of ``cli.main`` timed on its own.  The JSON
printed gives, from each op's median over the repetitions: per command the
two trees' totals and their ratio (parent over change, so above 1 when the
change is faster), the same ratio over all ops (``ops_ratio``), the
nearest-rank p50 and p99 of the ops, and the slowest ops of the change.
BLAS is pinned to one thread, as ``bench/run.py`` pins it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SLOWEST = 5


def load_main(src: Path, name: str):
    """``cli.main`` of the ``envarkit`` package under ``src``, imported as package ``name``."""
    init = src / "envarkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli").main


def corpus_argvs(seed: int, workdir: str) -> list[list[str]]:
    """cli-corpus's argvs at ``seed``, in its op order, its state files written to ``workdir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # noqa: PLC0415 - imports the envarkit on sys.path, to write the files only

    real = workloads._cli_op
    workloads._cli_op = lambda argv, check, near_cutoff=False: argv
    try:
        return workloads.build("cli-corpus", seed, workdir)[0]
    finally:
        workloads._cli_op = real


def call(main, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = main(argv)
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def command(argv: list[str]) -> str:
    """The command an argv runs, with its transform kind or derive option."""
    if argv[0] == "envariance":
        return "envariance " + argv[2].partition(":")[0]
    return " ".join([argv[0], *argv[2:3]])


def percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[max(math.ceil(q * len(ranked)) - 1, 0)]


def ab(parent_src: Path, change_src: Path, seed: int, reps: int) -> dict:
    mains = {side: load_main(src, f"envarkit_{side}") for side, src in zip(SIDES, (parent_src, change_src))}
    with tempfile.TemporaryDirectory() as workdir:
        argvs = corpus_argvs(seed, workdir)
        for argv in argvs:
            (code_a, out_a, _), (code_b, out_b, _) = (call(mains[side], argv) for side in SIDES)
            if (code_a, out_a) != (code_b, out_b):
                raise SystemExit(f"the trees differ on {argv[0]} {' '.join(argv[2:])}: exit {code_a} and {code_b}")
        times = {side: [[] for _ in argvs] for side in SIDES}
        for rep in range(reps):
            for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
                for n, argv in enumerate(argvs):
                    times[side][n].append(call(mains[side], argv)[2])
    medians = {side: [round(statistics.median(t) * 1e3, 4) for t in times[side]] for side in SIDES}
    commands: dict[str, dict] = {}
    for n, argv in enumerate(argvs):
        row = commands.setdefault(command(argv), {"ops": 0, "parent_ms": 0.0, "change_ms": 0.0})
        row["ops"] += 1
        for side in SIDES:
            row[f"{side}_ms"] += medians[side][n]
    for row in commands.values():
        row.update({key: round(row[key], 3) for key in ("parent_ms", "change_ms")})
        row["ratio"] = round(row["parent_ms"] / row["change_ms"], 3)
    slowest = sorted(range(len(argvs)), key=lambda n: -medians["change"][n])[:SLOWEST]
    return {
        "seed": seed,
        "reps": reps,
        "ops": len(argvs),
        "commands": dict(sorted(commands.items())),
        "ops_ratio": round(sum(medians["parent"]) / sum(medians["change"]), 3),
        **{side: {"op_p50_ms": percentile(medians[side], 0.5), "op_p99_ms": percentile(medians[side], 0.99)}
           for side in SIDES},
        "slowest": [
            {"argv": " ".join([argvs[n][0], Path(argvs[n][1]).name, *argvs[n][2:]]),
             **{f"{side}_ms": medians[side][n] for side in SIDES}}
            for n in slowest
        ],
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_src", type=Path)
    p.add_argument("change_src", type=Path)
    p.add_argument("--seed", type=int, default=31)
    p.add_argument("--reps", type=int, default=15)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.change_src))  # the envarkit bench/workloads.py imports
    print(json.dumps(ab(args.parent_src.resolve(), args.change_src.resolve(), args.seed, args.reps), indent=2))


if __name__ == "__main__":
    main()
