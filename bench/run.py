"""envarkit benchmark: one process, one closed-loop client, one workload.

    python3 bench/run.py --workload cli-corpus --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the client
runs whole passes of the workload's op list until ``--seconds`` have passed.
``--trace 1`` runs a fixed number of passes untraced, then the same passes
traced, and reports the per-layer metrics; their work counts repeat exactly
for a given seed.  Earlier stdout lines name every metric with its unit, the
environment record and the output digest; the last line is the JSON result.
Result and span files go to ``.bench_out/`` at the repository root.
"""

import os

# Pinned before numpy is imported, here and in every set-up probe.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe() -> float:
    """Wall time from launching a fresh interpreter to envarkit imported and warm."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "warm.py")],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_passes(ops, *, seconds=None, passes=None, tracer=None) -> dict:
    """Closed loop over whole passes; the digest covers the first pass only.

    ``latencies[i]`` holds op ``i``'s per-op time from every pass.  Passes
    alternate between the CPUs the process may use: on a shared host one
    CPU can run at half the speed of the other for many seconds, and each
    op's times should not depend on where the scheduler left the client.
    """
    n = len(ops)
    # Compact arrays, so that peak RSS hardly grows with the number of passes.
    latencies = [array("d") for _ in ops]
    counts = [1] * n
    digest = hashlib.sha256()
    attempted = failed = unexpected = 0
    busy = 0.0
    done = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    while True:
        os.sched_setaffinity(0, {cpus[done % len(cpus)]})
        # Each pass starts at another op, so that no op always runs first
        # on a CPU whose caches the switch has just left cold.
        offset = done * (n // 2 + 1) % n
        for k in range(n):
            i = (offset + k) % n
            if tracer is not None:
                tracer.op = done * n + k
            r = ops[i]()
            busy += r.busy
            attempted += r.count
            counts[i] = r.count
            latencies[i].append(r.busy / r.count)
            if not r.ok:
                failed += r.count
                unexpected += 0 if r.near_cutoff else r.count
            if done == 0:
                digest.update(r.blob)
        done += 1
        if done == passes or (passes is None and perf_counter() - start >= seconds):
            break
    os.sched_setaffinity(0, cpus)
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "busy_s": busy, "wall_s": perf_counter() - start, "passes": done,
            "latencies": latencies, "counts": counts, "digest": digest.hexdigest()}


def _weighted_percentile(pairs, q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs."""
    pairs = sorted(pairs)
    rank = q * sum(w for _, w in pairs)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]


def end_to_end(stats: dict, setup_s: float) -> dict:
    """Timings from each op's median pass.

    The host's speed drifts by tens of percent over seconds, so every op is
    repeated once per pass and the median of its times is taken as its
    cost.  The median over a whole run repeats far better between runs than
    the fastest time, which hangs on a few lucky moments.  ``ops_per_s`` is
    one pass's ops over the sum of those medians; the percentiles are over
    the per-op medians, each op weighted by the ops its call stands for.
    """
    cost = [(statistics.median(lat), n) for lat, n in zip(stats["latencies"], stats["counts"])]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(n for _, n in cost) / sum(t * n for t, n in cost), "1/s"),
        "op_p50_ms": (_weighted_percentile(cost, 0.5) * 1e3, "ms"),
        "op_p99_ms": (_weighted_percentile(cost, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_rule_busy(saturated) -> dict:
    """Single-rule saturate time over every term set the traced passes saturated."""
    import envarkit as ek
    from workloads import MERGE_RULES

    busy = dict.fromkeys(MERGE_RULES, 0.0)
    off = {rule.lower(): False for rule in MERGE_RULES}
    for term_set, _ in saturated:
        for rule in MERGE_RULES:
            rules = ek.RuleSet(**{**off, rule.lower(): True})
            t0 = perf_counter()
            ek.saturate(term_set, rules)
            busy[rule] += perf_counter() - t0
    return busy


def per_layer(tracer, rule_busy: dict, overhead: float) -> dict:
    import envarkit.finegrain as fg

    spans = tracer.by_name()
    c = tracer.counts

    def busy(name):
        return sum(spans.get(name, ()), 0.0)

    def calls(name):
        return len(spans.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = c["finegrain.derivation_cache.hits"] + c["finegrain.derivation_cache.misses"]
    bases = calls("gleason.random_basis")
    schmidt_times = spans.get("schmidt.schmidt", ())
    m = {"derivation.saturate.busy_s": (busy("derivation.saturate"), "s")}
    for rule, seconds in rule_busy.items():
        m[f"derivation.saturate.{rule}.busy_s"] = (seconds, "s")
    m.update({
        "derivation.saturate.scaling_exponent": (tracer.scaling_exponent(), "1"),
        "derivation.merge.attempts": (c["derivation.merge.attempts"], "count"),
        "derivation.merge.effective": (c["derivation.merge.effective"], "count"),
        "derivation.merge_yield": (ratio(c["derivation.merge.effective"],
                                         c["derivation.merge.attempts"]), "ratio"),
        "derivation.terms": (c["derivation.terms"], "count"),
        "derivation.classes": (c["derivation.classes"], "count"),
        "derivation.replay.calls": (calls("derivation.replay"), "count"),
        "derivation.replay.busy_s": (busy("derivation.replay"), "s"),
        "finegrain.born_via_counting.busy_s": (busy("finegrain.born_via_counting"), "s"),
        "finegrain.fine_grain.busy_s": (busy("finegrain.fine_grain"), "s"),
        "finegrain.derivation_cache.hit_ratio": (
            ratio(c["finegrain.derivation_cache.hits"], lookups), "ratio"),
        "finegrain.derivation_cache.size": (fg.equal_branch_derivation.cache_info().currsize,
                                            "count"),
        "schmidt.calls": (len(schmidt_times), "count"),
        "schmidt.busy_s": (sum(schmidt_times, 0.0), "s"),
        "schmidt.p50_us": (statistics.median(schmidt_times) * 1e6 if schmidt_times else 0.0,
                           "us"),
        "schmidt.rank_mismatch": (c["schmidt.rank_mismatch"], "count"),
        "envariance.check.calls": (calls("envariance.check_envariance"), "count"),
        "envariance.check.busy_s": (busy("envariance.check_envariance"), "s"),
        "envariance.oracle.calls": (calls("envariance.oracle_best_counter"), "count"),
        "envariance.oracle.busy_s": (busy("envariance.oracle_best_counter"), "s"),
        "envariance.oracle_per_decision": (ratio(calls("envariance.oracle_best_counter"),
                                                 calls("envariance.check_envariance")), "ratio"),
        "states.load_state.busy_s": (busy("states.load_state"), "s"),
        "states.make_state.busy_s": (busy("states.make_state"), "s"),
        "states.apply.calls": (calls("states.apply_system") + calls("states.apply_env"),
                               "count"),
        "cli.main.self_s": (tracer.self_time("cli.main"), "s"),
        "gleason.random_basis.busy_s": (busy("gleason.random_basis"), "s"),
        "gleason.frame_sum.busy_s": (busy("gleason.frame_sum"), "s"),
        "gleason.bases": (bases, "count"),
        "gleason.per_basis_us": (ratio(busy("gleason.audit"), bases) * 1e6, "us"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return m


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, workdir: Path):
    """Run the workload; return (metrics, stats, tracer or None).

    ``setup_s`` is the median of ``SETUP_PROBES`` fresh interpreters importing
    envarkit and warming every layer, plus the workload's own set-up in the
    program (the derivation-cache fill of counting-sweep), timed once here.
    """
    if args.trace == 0:
        probe_s = statistics.median(setup_probe() for _ in range(SETUP_PROBES))

    import workloads
    import envarkit.finegrain as fg
    from tracing import Tracer

    ops, registry = workloads.build(args.workload, args.seed, workdir)
    workloads.warm_layers()
    t0 = perf_counter()
    workloads.fill_cache(args.workload)
    fill_s = perf_counter() - t0
    if args.trace == 0:
        stats = run_passes(ops, seconds=args.seconds)
        return end_to_end(stats, probe_s + fill_s), stats, None

    passes = workloads.TRACE_PASSES[args.workload]
    base = run_passes(ops, passes=passes)
    fg.equal_branch_derivation.cache_clear()
    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}", registry)
    tracer.install()
    try:
        workloads.fill_cache(args.workload)
        traced = run_passes(ops, passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = traced["busy_s"] / base["busy_s"] - 1.0
    metrics = per_layer(tracer, per_rule_busy(tracer.saturated), overhead)
    stats = dict(traced)
    for key in ("attempted", "failed", "unexpected"):
        stats[key] = base[key] + traced[key]
    stats["digest_untraced"] = base["digest"]
    return metrics, stats, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "envarkit" / "__init__.py").is_file():
        print(f"envarkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="corpus-", dir=OUT))
    try:
        metrics, stats, tracer = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT / f"spans-{tag}.json")
    env = environment(args)
    detail = {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "fail_frac": stats["failed"] / stats["attempted"],
        "failed_outside_near_cutoff": stats["unexpected"],
        "passes": stats["passes"],
        "busy_s": stats["busy_s"],
        "wall_s": stats["wall_s"],
        "digest_sha256": stats["digest"],
    }
    if "digest_untraced" in stats:
        detail["digest_sha256_untraced"] = stats["digest_untraced"]
    result = {
        # Near-cutoff cli-corpus states exercise a known Schmidt defect: their
        # failures are counted in ``failed`` but do not make the run incorrect.
        "correct": stats["unexpected"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=2)
    print(f"env {json.dumps(env)}")
    print(f"detail {json.dumps(detail)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
