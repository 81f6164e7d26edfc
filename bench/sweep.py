"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 1-10                       # every workload
    python3 bench/sweep.py --workloads cli-corpus --seeds 1-5 --trace 1

For each workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``.  Raw values go to ``.bench_out/sweep-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    collected: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(config["run_seconds"]),
                                       "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        collected[workload] = values
        print(f"== {workload}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = "" if bound is None else f" bound {bound:g}" + (
                "  OVER 1/3 BOUND" if spread > bound / 3 and name != "setup_s" else "")
            print(f"  {name:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}{flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"sweep-{int(time.time())}.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "trace": args.trace, "values": collected}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
