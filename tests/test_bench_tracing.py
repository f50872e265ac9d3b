"""The traced benchmark run finds every function it is told to wrap.

``bench/tracing.py`` wraps each name in its ``TARGETS`` at every affeq module
binding; a renamed or bypassed function would leave its figures empty
without any error.  This reads the benchmark's table and changes nothing.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from affeq import cmdet, linalg
from affeq.cmdet import SquaredDistanceMatrix, cmd, quadratic_slice

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_targets_resolve_to_callables():
    targets = load_targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"affeq.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"affeq.{module}.{name}"


def test_exact_determinants_call_the_traced_binding(monkeypatch):
    # One kernel call per exact _evaluate batch, through cmdet's own binding
    # of the traced name: cmd's 3-point subset, then the slice's 3-point
    # subset and its 1-point face (its cofactor minor is not a bordered
    # determinant), then all three pairs in one call.
    batches = []

    def counting(z, subsets):
        assert z.dtype == object
        batches.append(np.shape(subsets))
        return linalg.bordered_det_batch(z, subsets)

    monkeypatch.setattr(cmdet, "bordered_det_batch", counting)
    D = SquaredDistanceMatrix([[0, 9, Fraction(25, 2)], [9, 0, 16], [Fraction(25, 2), 16, 0]])
    cmd(D, (0, 1, 2))
    quadratic_slice(D, (0, 1, 2), (0, 1))
    cmdet._evaluate(D, cmdet._subsets(3, 2))
    assert batches == [(1, 3), (1, 3), (1, 1), (3, 2)]


def test_traced_search_records_the_least_squares_seam():
    # In a subprocess, so the tracer's wrappers stay out of every other test.
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "import affeq\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "inst = affeq.random_instance(0, 8, 2, 0.5)[0]\n"
        "tracer.on = True\n"
        "v = affeq.solve(inst)\n"
        "tracer.on = False\n"
        "assert v.kind == 'YES' and v.diagnostics['stage'] == 'numeric'\n"
        "assert tracer.counts['solver.least_squares.nfev'] > 0\n"
        "assert tracer.counts['solver.least_squares.njev'] > 0\n"
        "names = {span[2] for span in tracer.spans}\n"
        "assert {'solver.least_squares.fun', 'solver.least_squares.jac'} <= names, names\n"
    )
    src = TRACING.parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
