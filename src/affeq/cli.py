"""Command-line front end for deciding and certifying instances.

Subcommands operate on instance documents (see :mod:`affeq.instance_io`):

    solve FILE        decide the instance, print verdict and certificate
    check FILE        evaluate the document's candidate assignment
    verify FILE       check two explicit frameworks and the derived map
    embed FILE        realize squared distances as coordinates
    cmd FILE          evaluate one subset determinant
    export-smt FILE   emit the feasibility system as solver-exchange text

Every command except export-smt prints a JSON report on stdout.  Exit
status: 0 for YES or pass, 1 for NO or fail, 2 for UNKNOWN, 64 for an
unreadable or malformed input, 70 for an internal error (any other
exception; one ``error: internal:`` line on stderr names it).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .cmdet import SquaredDistanceMatrix, cmd, simplex_volume_sq
from .embedding import Configuration, distances_of, embed
from .errors import EmbeddabilityError, InputError, NoBaseSimplexError
from .instance_io import InstanceDocument, load_document, render_document
from .reconstruct import AffineMap, affine_from_simplex, verify_problem1
from .smtexport import export_smt
from .solver import NO, UNKNOWN, YES, SearchBudget, solve
from .system import (
    Instance,
    Tolerances,
    _jsonable,
    check_assignment,
    find_base_simplex,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 64
EXIT_INTERNAL = 70

_VERDICT_EXIT = {YES: EXIT_YES, NO: EXIT_NO, UNKNOWN: EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors follow the exit-64 convention."""

    def error(self, message):
        raise InputError(message)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _with_dim(inst: Instance, dim: Optional[int]) -> Instance:
    if dim is None or dim == inst.d:
        return inst
    return Instance(inst.n, dim, inst.edges, inst.lam, inst.lam_prime)


def _tolerances(args) -> Tolerances:
    if getattr(args, "tol_rel", None) is None:
        return Tolerances()
    return Tolerances(rel_eps=args.tol_rel)


def _matrix_from_document(doc: InstanceDocument, side: str) -> SquaredDistanceMatrix:
    """The document's squared-distance matrix for one side.

    An assignment supplies it directly; otherwise the graph must be
    complete so the prescribed lengths fill the whole matrix.
    """
    inst = doc.instance()
    if doc.has_assignment():
        a = doc.assignment()
        return a.z if side == "z" else a.z_prime
    if not inst.is_complete():
        raise InputError(
            "distance data is incomplete: list every pair as an edge or "
            "supply z/z_prime records with an alpha record"
        )
    table = inst.lam_sq() if side == "z" else inst.lam_prime_sq()
    return SquaredDistanceMatrix.from_pairs(inst.n, table)


def _derive_map(inst: Instance, p: Configuration, q: Configuration):
    """Affine map pinned by a spanning simplex of the first framework.

    A degenerate first framework cannot pin any map; the identity is
    returned so the hull condition reports the failure.
    """
    try:
        base = find_base_simplex(distances_of(p), inst.d)
        src = [p.points[i] for i in base]
        dst = [q.points[i] for i in base]
        return affine_from_simplex(src, dst), None
    except (NoBaseSimplexError, InputError) as exc:
        return AffineMap.identity(inst.d), str(exc)


def _run_solve(args) -> int:
    doc = load_document(args.file)
    inst = _with_dim(doc.instance(), args.dim)
    if args.exact and not inst.exact:
        raise InputError("--exact requires rational lengths (integers or p/q)")
    tol = _tolerances(args)
    budget_kwargs = {}
    if args.restarts is not None:
        budget_kwargs["restarts"] = args.restarts
    if args.seed is not None:
        budget_kwargs["seed"] = args.seed
    budget = SearchBudget(**budget_kwargs)

    fixed = None
    if args.fixed_left is not None:
        if args.all_dims:
            raise InputError("--fixed-left cannot be combined with --all-dims")
        config_doc = load_document(args.fixed_left)
        fixed = config_doc.configuration()
        if fixed is None:
            raise InputError(f"{args.fixed_left} has no point records")

    if args.all_dims:
        sweep = []
        overall = NO
        for m in range(1, inst.d + 1):
            verdict = solve(_with_dim(inst, m), budget, tol)
            sweep.append({"dim": m, **verdict.to_dict()})
            if verdict.kind == YES:
                overall = YES
            elif verdict.kind == UNKNOWN and overall != YES:
                overall = UNKNOWN
        _emit({"command": "solve", "all_dims": sweep, "overall": overall})
        return _VERDICT_EXIT[overall]

    verdict = solve(inst, budget, tol, fixed_left=fixed)
    if args.emit_certificate is not None and verdict.kind == YES:
        cert = verdict.certificate
        text = render_document(inst, points=cert.p, points_prime=cert.p_prime,
                               assignment=cert.assignment)
        with open(args.emit_certificate, "w", encoding="utf-8") as handle:
            handle.write(text)
    _emit({"command": "solve", "dim": inst.d, **verdict.to_dict()})
    return _VERDICT_EXIT[verdict.kind]


def _run_check(args) -> int:
    doc = load_document(args.file)
    inst = _with_dim(doc.instance(), args.dim)
    assignment = doc.assignment()
    if args.exact and not (inst.exact and assignment.exact):
        raise InputError("--exact requires rational inputs throughout")
    report = check_assignment(inst, assignment, _tolerances(args))
    _emit({"command": "check", "passed": report.passed, "report": report.to_dict()})
    return EXIT_YES if report.passed else EXIT_NO


def _run_verify(args) -> int:
    doc = load_document(args.file)
    inst = doc.instance()
    p = doc.configuration()
    q = doc.configuration_prime()
    if p is None or q is None:
        raise InputError("verify needs point and point_prime records")
    tol = 1e-6 if args.tol_rel is None else args.tol_rel
    amap, degenerate_note = _derive_map(inst, p, q)
    report = verify_problem1(inst, p, q, amap, tol)
    payload = {
        "command": "verify",
        "passed": report.passed,
        "map": {
            "matrix": _jsonable([list(row) for row in amap.matrix]),
            "shift": _jsonable(list(amap.shift)),
        },
        "report": report.to_dict(),
    }
    if degenerate_note is not None:
        payload["note"] = degenerate_note
    _emit(payload)
    return EXIT_YES if report.passed else EXIT_NO


def _run_embed(args) -> int:
    doc = load_document(args.file)
    dim = args.dim if args.dim is not None else doc.dim
    matrix = _matrix_from_document(doc, args.side)
    tol = _tolerances(args)
    try:
        config = embed(matrix, dim, rel_eps=tol.rel_eps)
    except EmbeddabilityError as exc:
        _emit({
            "command": "embed",
            "dim": dim,
            "side": args.side,
            "passed": False,
            "error": {
                "condition": exc.report.first_failed_condition,
                "witness_subset": _jsonable(exc.report.witness_subset),
                "residual": exc.report.residual,
            },
        })
        return EXIT_NO
    _emit({
        "command": "embed",
        "dim": dim,
        "side": args.side,
        "passed": True,
        "points": [[float(x) for x in pt] for pt in config.points],
    })
    return EXIT_YES


def _parse_subset(text: str) -> tuple:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise InputError(
            f"--subset wants comma-separated vertex indices, got {text!r}"
        ) from None


def _run_cmd(args) -> int:
    doc = load_document(args.file)
    matrix = _matrix_from_document(doc, args.side)
    subset = _parse_subset(args.subset)
    _emit({
        "command": "cmd",
        "side": args.side,
        "subset": list(subset),
        "determinant": _jsonable(cmd(matrix, subset)),
        "volume_sq": _jsonable(simplex_volume_sq(matrix, subset)),
    })
    return EXIT_YES


def _run_export(args) -> int:
    doc = load_document(args.file)
    inst = _with_dim(doc.instance(), args.dim)
    sys.stdout.write(export_smt(inst))
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affeq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def subcommand(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("file", help="instance document path")
        p.set_defaults(handler=handler)
        return p

    def add_dim(p):
        p.add_argument("--dim", type=int, metavar="D",
                       help="override the document's dimension")

    def add_tol(p):
        p.add_argument("--tol-rel", type=float, dest="tol_rel", metavar="EPS",
                       help="relative tolerance for float comparisons")

    def add_side(p):
        p.add_argument("--side", choices=("z", "z_prime"), default="z",
                       help="which side's squared distances to use")

    p = subcommand("solve", _run_solve,
                   "decide whether an equivalent framework pair exists")
    add_dim(p)
    add_tol(p)
    p.add_argument("--all-dims", action="store_true", dest="all_dims",
                   help="sweep every dimension from 1 up and report each "
                        "verdict plus their disjunction")
    p.add_argument("--fixed-left", dest="fixed_left", metavar="CONFIG",
                   help="document whose point records pin the first framework")
    p.add_argument("--restarts", type=int, metavar="N",
                   help="number of random search restarts")
    p.add_argument("--seed", type=int, metavar="N",
                   help="seed for the search's random starts")
    p.add_argument("--exact", action="store_true",
                   help="require rational input data")
    p.add_argument("--emit-certificate", dest="emit_certificate", metavar="PATH",
                   help="on YES, write the certificate as a document "
                        "(readable back by 'check' and 'verify')")

    p = subcommand("check", _run_check,
                   "evaluate the document's candidate assignment "
                   "against every condition")
    add_dim(p)
    add_tol(p)
    p.add_argument("--exact", action="store_true",
                   help="require rational input data")

    p = subcommand("verify", _run_verify,
                   "check that the document's two frameworks are equivalent "
                   "under the map their base simplices pin")
    add_tol(p)

    p = subcommand("embed", _run_embed,
                   "realize the document's squared distances as coordinates")
    add_dim(p)
    add_tol(p)
    add_side(p)

    p = subcommand("cmd", _run_cmd,
                   "evaluate the determinant of one vertex subset")
    add_side(p)
    p.add_argument("--subset", required=True, metavar="I,J,...",
                   help="comma-separated vertex indices")

    p = subcommand("export-smt", _run_export,
                   "emit the feasibility system as quantifier-free "
                   "nonlinear real arithmetic text")
    add_dim(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses, built on its first call."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
