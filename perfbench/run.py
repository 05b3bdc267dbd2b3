"""The phimod benchmark.

    python3 perfbench/run.py --workload classify_q --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop (one caller, one thread, one process) for
about --seconds of wall time and checks every output. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced replay of the same ops (see README.md). The line
before it is a JSON report with sample counts and the fields no bound applies
to. The exit code is 0 when every op was correct, 1 when some op failed, and
2 when the program under test is missing.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("classify_q", "scan_q", "cyclotomic")
SETUP_REPEATS = 21
TAIL_PERCENTILES = (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9))
TAIL_MIN_BEYOND = 10

# Timed in a fresh interpreter: importing phimod and building the contexts.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import phimod
for p, m in json.loads(sys.argv[2]):
    phimod.PrimeContext(p, m)
print(time.perf_counter() - t0)
"""


@dataclass
class Result:
    op: object
    seconds: float
    raised: bool
    ok: bool
    digest: object


def measure_setup(contexts):
    """Median over fresh interpreters, after one untimed run that also
    writes the bytecode cache."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(contexts)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def run_op(workload, op, check):
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception:  # the loop must go on; the op counts as failed
        dt = time.perf_counter() - t0
        print(f"op {op.key[:120]} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Result(op, dt, True, False, None)
    dt = time.perf_counter() - t0
    return Result(op, dt, False, bool(check(op, out)), workload.digest(out))


def run_loop(workload, ops, seconds, check):
    """Yields a Result per op until `seconds` of wall time have passed,
    finishing the round when the workload keeps whole rounds. Making inputs
    and checking outputs count against the wall time but not against any op."""
    start = time.perf_counter()
    for count, op in enumerate(ops, 1):
        yield run_op(workload, op, check)
        whole = not workload.whole_rounds or count % workload.whole_rounds == 0
        if whole and time.perf_counter() - start >= seconds:
            return


def percentile(sorted_values, q):
    """Nearest-rank percentile, with the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setup_s = measure_setup(workload.contexts)
    # Only per-op numbers are kept, so that the benchmark's own memory does
    # not grow with the number of ops a faster program completes.
    times, failed, raised = [], 0, 0
    inputs = hashlib.sha256()
    for r in run_loop(workload, workload.ops(seed), seconds, workload.check):
        times.append(r.seconds)
        failed += not r.ok
        raised += r.raised
        inputs.update(r.op.key.encode() + b"\n")
    times.sort()
    attempted = len(times)
    completed = attempted - raised
    tail = None
    for name, q in TAIL_PERCENTILES:
        value, beyond = percentile(times, q)
        if beyond >= TAIL_MIN_BEYOND:
            tail = {"value": value * 1e3, "unit": "ms", "percentile": name, "beyond": beyond}
            break
    metrics = {
        "ops_per_s": metric(completed / sum(times), "1/s"),
        "latency_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "samples": attempted,
        "timed_s": sum(times),
        "input_digest": inputs.hexdigest(),
        "latency_tail_ms": tail,
        "failure_ratio": metric(failed / attempted, "ratio"),
        "setup_repeats": SETUP_REPEATS,
    }
    return attempted, failed, metrics, report


def clear_caches():
    """Empties every lru_cache in phimod, so a replay gets no reuse that a
    first pass over the same inputs would not get."""
    for name, module in list(sys.modules.items()):
        if name == "phimod" or name.startswith("phimod."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def layer_metrics(tracer, n_ops):
    from spans import TARGETS

    totals = tracer.totals()
    out = {}
    for layer, func, split in TARGETS:
        if (layer, func) == ("cli", "main"):
            continue
        names = [f"{layer}.{func}.q", f"{layer}.{func}.cyc"] if split else [f"{layer}.{func}"]
        for name in names:
            calls, incl_ns, self_ns = totals.get(name, (0, 0, 0))
            out[f"{name}.calls_per_op"] = metric(calls / n_ops, "count")
            out[f"{name}.us_per_call"] = metric(incl_ns / calls / 1e3 if calls else 0.0, "us")
            out[f"{name}.self_ms_per_op"] = metric(self_ns / n_ops / 1e6, "ms")
    out["cli.format.self_ms_per_op"] = metric(totals.get("cli.main", (0, 0, 0))[2] / n_ops / 1e6, "ms")

    names = {sid: name for sid, name, *_ in tracer.spans}
    in_scan = [name for _, name, _, _, parent, _ in tracer.spans if names.get(parent) == "scan.scan"]
    closures = in_scan.count("monodromy.monodromy_group")
    rows = in_scan.count("scan.class_of_point")
    out["scan.closures_per_op"] = metric(closures / n_ops, "count")
    out["scan.rows_per_closure"] = metric(rows / closures if closures else 0.0, "count")
    out["scan.class_repeat_share"] = metric(1 - closures / rows if rows else 0.0, "ratio")
    out["scalars.valuation.escalations_per_op"] = metric(tracer.escalations / n_ops, "count")
    return out


def criteria_headroom():
    """Each acceptance criterion once, untraced, with a cold cache."""
    from phimod import verify

    out, failed = {}, 0
    for number, criterion in sorted(verify.CRITERIA.items()):
        clear_caches()
        t0 = time.perf_counter()
        result = criterion()
        elapsed = time.perf_counter() - t0
        failed += not result.ok
        out[f"verify.criterion_{number}.s"] = metric(elapsed, "s")
        if result.budget is not None:
            out[f"verify.criterion_{number}.headroom_s"] = metric(result.budget - elapsed, "s")
    return out, len(verify.CRITERIA), failed


def src_lines():
    return sum(len(path.read_text().splitlines()) for path in sorted((SRC / "phimod").glob("*.py")))


def traced(workload, seed, seconds):
    """Half the time untraced, then a traced replay of the same ops with the
    caches emptied first; the replay's outputs must match."""
    from phimod import linalg
    from spans import Tracer

    check = workload.check
    clear_caches()
    plain = list(run_loop(workload, workload.ops(seed), seconds / 2, check))
    clear_caches()
    tracer = Tracer()
    replay = []
    with tracer:
        for i, first in enumerate(plain):
            token = tracer.begin_op(i, "q" if first.op.m == 1 else "cyc")
            replay.append(run_op(workload, first.op, check))
            tracer.end(token)
    cache = linalg._char_poly_cached.cache_info()
    n_ops = len(plain)
    failed = sum(not (a.ok and b.ok and a.digest == b.digest) for a, b in zip(plain, replay))
    metrics = layer_metrics(tracer, n_ops)
    lookups = cache.hits + cache.misses
    metrics["linalg.char_poly.cache_hit_ratio"] = metric(cache.hits / lookups if lookups else 0.0, "ratio")
    overhead = sum(r.seconds for r in replay) / sum(r.seconds for r in plain)
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(trace_path)
    verify_metrics, n_criteria, failed_criteria = criteria_headroom()
    metrics.update(verify_metrics)
    metrics["src_lines"] = metric(src_lines(), "lines")
    report = {
        "workload": workload.name,
        "seed": seed,
        "samples": n_ops,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "failed_ops": failed,
        "failed_criteria": failed_criteria,
    }
    return n_ops + n_criteria, failed + failed_criteria, metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phimod" / "__init__.py").is_file():
        print(f"error: no phimod sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    attempted, failed, metrics, report = run(workload, args.seed, args.seconds)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
