"""The traced benchmark run finds every function it is told to wrap.

``bench/tracing.py`` wraps each name in its ``TARGETS`` at every affeq module
binding; a renamed or bypassed function would leave its figures empty
without any error.  This reads the benchmark's table and changes nothing.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

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
    # One kernel call per exact determinant, through cmdet's own binding of
    # the traced name: cmd's 3-point matrix, then the slice's 3-point matrix,
    # its 1-point face and one cofactor minor.
    sizes = []

    def counting(rows):
        sizes.append(len(rows))
        return linalg.bareiss_det(rows)

    monkeypatch.setattr(cmdet, "bareiss_det", counting)
    D = SquaredDistanceMatrix([[0, 9, Fraction(25, 2)], [9, 0, 16], [Fraction(25, 2), 16, 0]])
    cmd(D, (0, 1, 2))
    quadratic_slice(D, (0, 1, 2), (0, 1))
    assert sizes == [4, 4, 2, 3]
