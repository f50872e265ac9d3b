"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload solve-planted --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; affeq is imported from its ``src``.
The workload runs in a fresh worker process with one BLAS and OpenMP thread.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The full result of each
run, and the span log of a traced one, go to ``bench/results/``.  The exit
status is 0 only when every answer passed its independent check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# Fresh interpreters timed for set-up besides the measuring worker itself.
SETUP_PROBES = 4
DEADLINE_S = 170


def worker_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(MODULES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "affeq" / "__init__.py").is_file():
        print(f"error: no affeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    worker = [sys.executable, str(BENCH / "worker.py"), args.workload]

    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            t0 = time.monotonic()
            done = subprocess.run(worker + [repr(t0)], env=env, capture_output=True,
                                  text=True, check=True, timeout=deadline - time.monotonic())
            setup.append(float(done.stdout))
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.unlink(missing_ok=True)
        t0 = time.monotonic()
        subprocess.run(worker + [repr(t0), str(args.seed), repr(args.seconds),
                                 str(args.trace), str(out)],
                       env=env, stdout=sys.stderr, check=True,
                       timeout=deadline - time.monotonic())
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with status {exc.returncode}\n{exc.stderr or ''}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1

    result = json.loads(out.read_text(encoding="utf-8"))
    metrics = result.pop("metrics")
    if args.trace:
        spans = out.with_suffix(".spans.json")
        spans.write_text(json.dumps(result.pop("span_log")), encoding="utf-8")
    else:
        setup.append(result["setup_s"])
        result["setup_probes_s"] = setup
        metrics["setup_s"] = (statistics.median(setup), "s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for line in result["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
