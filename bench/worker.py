"""One benchmark run of one workload, in a fresh single-threaded interpreter.

run.py starts it as

    python3 bench/worker.py WORKLOAD T0                    (set-up probe)
    python3 bench/worker.py WORKLOAD T0 SEED SECONDS TRACE OUT [ROUNDS]

T0 is the parent's ``time.monotonic()`` just before the start, so the set-up
figure covers interpreter start-up and the import of the affeq modules the
workload calls; a probe prints it and exits.  A full run then generates
inputs and runs whole rounds of operations until SECONDS of timed work and at
least MIN_OPS operations are done (exactly ROUNDS rounds when given), checks
every answer between rounds, and writes its result as JSON to OUT.
"""

import importlib
import sys
import time

# The affeq modules each workload's operations call.
MODULES = {
    "solve-planted": ("affeq.solver",),
    "check-dense": ("affeq.system", "affeq.cmdet"),
    "exact-cli": ("affeq.cli",),
}
# Enough operations for ten to lie beyond the 90th percentile.
MIN_OPS = 100


def percentile(times, q):
    """The op time at 0-based rank floor(q * N), the upper of two middle
    values for the median of an even count.  A round holds equal numbers of
    a few kinds of op whose times form separate clusters; interpolating
    between ranks would mix the slowest op of one cluster with the fastest
    of the next, and so track single outliers."""
    return sorted(times)[int(q * len(times))]


def measure(name, seed, seconds, trace, workdir, rounds=None):
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(seed, workdir) if name == "exact-cli" else cls(seed)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    times, tally, wrong = [], {}, []
    timed = 0.0
    r = 0
    while (r < rounds) if rounds is not None else (timed < seconds or len(times) < MIN_OPS):
        ops = wl.make_round(r)
        outputs = []
        if tracer:
            tracer.on = True
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            outputs.append(wl.run(op))
            times.append(time.perf_counter() - t)
        timed += time.perf_counter() - start
        if tracer:
            tracer.on = False
        for op, out in zip(ops, outputs):
            try:
                outcome = wl.check(op, out)
            except workloads.Wrong as exc:
                outcome = "wrong"
                wrong.append(f"round {r} {op.kind}: {exc}")
            tally[outcome] = tally.get(outcome, 0) + 1
        r += 1

    ops_per_s = len(times) / timed
    result = {
        "workload": name, "seed": seed, "rounds": r, "timed_s": timed,
        "attempted": len(times), "outcomes": tally, "wrong": wrong[:20],
        "correct": not wrong, "failed": tally.get(workloads.FAILED, 0),
    }
    if tracer:
        result["metrics"] = tracer.metrics(len(times))
        result["metrics"]["traced.ops_per_s"] = (ops_per_s, "1/s")
        result["counts"] = tracer.raw_counts()
        result["span_log"] = tracer.span_log()
        return result
    import resource

    result["metrics"] = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms.p50": (1e3 * percentile(times, 0.5), "ms"),
        "op_ms.p90": (1e3 * percentile(times, 0.9), "ms"),
        # scaled to a run of exactly SECONDS, so the whole-round ending adds
        # no step of one round's ops
        "decided": (tally.get(workloads.DECIDED, 0) * seconds / timed, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return result


def main(argv):
    name, t0 = argv[0], float(argv[1])
    for module in MODULES[name]:
        importlib.import_module(module)
    setup_s = time.monotonic() - t0
    if len(argv) == 2:
        print(repr(setup_s))
        return 0

    import json
    import shutil
    from pathlib import Path

    import affeq

    root = Path(__file__).resolve().parent.parent
    if Path(affeq.__file__).resolve().parent != root / "src" / "affeq":
        print(f"affeq was imported from {affeq.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    seed, seconds, trace, out = int(argv[2]), float(argv[3]), argv[4] == "1", Path(argv[5])
    rounds = int(argv[6]) if len(argv) > 6 else None
    workdir = out.with_suffix(".work")
    try:
        result = measure(name, seed, seconds, trace, workdir, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
