"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Shows that every workload's check rejects a deliberately corrupted answer,
that the tracer leaves no affeq binding of a traced function unwrapped, and
that two traced runs of the same rounds give identical counts.  Exits
non-zero on the first failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def rejects(wl, op, output, what):
    try:
        wl.check(op, output)
    except workloads.Wrong:
        return
    raise AssertionError(f"{what}: corrupted answer accepted")


def solve_planted():
    wl = workloads.SolvePlanted(5)
    op = wl.make_round(0)[0]
    verdict = wl.run(op)
    assert wl.check(op, verdict) == workloads.DECIDED, "planted YES not accepted"
    cert = verdict.certificate

    def with_cert(**changes):
        return dataclasses.replace(verdict, certificate=dataclasses.replace(cert, **changes))

    moved = [list(pt) for pt in cert.p_prime.points]
    moved[0][0] += 0.01 * cert.p_prime.diameter()
    rejects(wl, op, with_cert(p_prime=dataclasses.replace(cert.p_prime, points=moved)),
            "moved point")
    shift = tuple(s + 0.01 * cert.p_prime.diameter() for s in cert.amap.shift)
    rejects(wl, op, with_cert(amap=dataclasses.replace(cert.amap, shift=shift)),
            "shifted map")
    rejects(wl, op, SimpleNamespace(kind="NO"), "NO on a planted instance")
    line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    assert checks.float_certificate([(0, 1), (1, 2)], [1.0, 1.0], [1.0, 1.0], 2, line, line,
                                    [(1.0, 0.0), (0.0, 1.0)], [0.0, 0.0]), \
        "collinear framework accepted in the plane"


def check_dense():
    wl = workloads.CheckDense(5)
    for op in wl.make_round(0)[:2]:
        report = wl.run(op)
        assert wl.check(op, report) == workloads.DECIDED, "checker answer not accepted"
        rejects(wl, op, SimpleNamespace(passed=not report.passed), "flipped check")


def exact_cli():
    workdir = run.RESULTS / "selftest.work"
    wl = workloads.ExactCli(5, workdir)
    ops = {op.kind: op for op in wl.make_round(0)}
    outputs = {kind: wl.run(op) for kind, op in ops.items()}
    shutil.rmtree(workdir)
    for kind, op in ops.items():
        assert wl.check(op, outputs[kind]) == workloads.DECIDED, f"{kind} not accepted"

    status, text = outputs["line-yes"]
    report = json.loads(text)
    point = report["certificate"]["points_prime"][0]
    point[0] = str(Fraction(point[0]) + 1)
    rejects(wl, ops["line-yes"], (status, json.dumps(report)), "moved line point")
    rejects(wl, ops["line-cycle"], (0, outputs["line-yes"][1]), "YES on a refuted line")
    rejects(wl, ops["lattice-fail"], (0, outputs["lattice-pass"][1]), "passing a bad check")
    rejects(wl, ops["lattice-pass"], outputs["lattice-fail"], "failing a good check")
    status, text = outputs["lattice"]
    lines = text.splitlines()
    dropped = "\n".join(ln for k, ln in enumerate(lines)
                        if k != next(i for i, s in enumerate(lines) if s.startswith("(assert")))
    rejects(wl, ops["lattice"], (status, dropped), "missing assertion")
    rejects(wl, ops["lattice"], (status, text + ")"), "unbalanced text")

    data = ops["line-ratio"].data[2]
    assert not checks.line_feasible(data["n"], data["edges"], data["lam"], data["lam_prime"])
    assert checks.exact_inertia([[0, 1], [1, 0]]) == (0, True), "indefinite matrix"
    assert checks.exact_inertia([[2, 1], [1, 2]]) == (2, False), "definite matrix"


def wrappers_cover_every_binding():
    import importlib

    importlib.import_module("affeq.cli")
    originals = {id(getattr(importlib.import_module(f"affeq.{module}"), name)): f"{module}.{name}"
                 for module, names in tracing.TARGETS.items() for name in names}
    tracing.Tracer().install()
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "affeq":
            continue
        for attr, value in vars(mod).items():
            assert id(value) not in originals, \
                f"{mod.__name__}.{attr} still binds unwrapped {originals[id(value)]}"


def traced_counts_repeat():
    for name in workloads.WORKLOADS:
        counts = []
        for k in range(2):
            out = run.RESULTS / f"selftest-{name}-{k}.json"
            subprocess.run([sys.executable, str(BENCH / "worker.py"), name,
                            repr(time.monotonic()), "3", "0", "1", str(out), "2"],
                           env=run.worker_env(), check=True, timeout=170)
            counts.append(json.loads(out.read_text(encoding="utf-8"))["counts"])
            out.unlink()
        assert counts[0] and counts[0] == counts[1], f"{name}: traced counts differ"


def main():
    run.RESULTS.mkdir(exist_ok=True)
    for test in (solve_planted, check_dense, exact_cli, wrappers_cover_every_binding,
                 traced_counts_repeat):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
