"""Line-oriented instance files and report serialization.

One document describes an instance and, optionally, configurations and a
candidate assignment.  Records, one per line, ``#`` starting a comment:

    dim <d>
    vertices <n>
    edge <i> <j> <lam> <lam_prime>
    point <x_1> ... <x_d>            first framework, one record per vertex
    point_prime <x_1> ... <x_d>      second framework, one record per vertex
    z <i> <j> <value>                candidate squared distance, first side
    z_prime <i> <j> <value>          candidate squared distance, second side
    alpha <value>                    candidate ratio; marks an assignment

Numbers are decimals (``2.5``, ``1e-3``) or exact rationals (``7``, ``3/4``);
rational inputs keep all downstream determinant work exact.  In an
assignment, squared distances on edges default to the prescribed lengths;
every non-edge pair must be given explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cmdet import SquaredDistanceMatrix
from .embedding import Configuration
from .errors import InputError, InstanceFormatError
from .system import Assignment, Instance


def parse_number(token: str):
    """Exact value for integer or p/q tokens, float otherwise."""
    if "/" in token:
        num, _, den = token.partition("/")
        return Fraction(int(num), int(den))
    try:
        return int(token)
    except ValueError:
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {token!r}")
        return value


def format_number(value) -> str:
    """Token that ``parse_number`` maps back to an equal value."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


@dataclass
class InstanceDocument:
    """Parsed instance file: the graph plus any optional sections."""

    dim: int
    n: int
    edges: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    lam_prime: list = field(default_factory=list)
    points: list = field(default_factory=list)
    points_prime: list = field(default_factory=list)
    z_entries: dict = field(default_factory=dict)
    zp_entries: dict = field(default_factory=dict)
    alpha: Optional[object] = None

    def instance(self) -> Instance:
        return Instance(self.n, self.dim, tuple(self.edges),
                        tuple(self.lam), tuple(self.lam_prime))

    def configuration(self) -> Optional[Configuration]:
        if not self.points:
            return None
        return Configuration(self.dim, self.points)

    def configuration_prime(self) -> Optional[Configuration]:
        if not self.points_prime:
            return None
        return Configuration(self.dim, self.points_prime)

    def has_assignment(self) -> bool:
        return self.alpha is not None

    def assignment(self) -> Assignment:
        """Candidate assignment with pinned entries defaulted from lengths."""
        if self.alpha is None:
            raise InstanceFormatError(
                "no assignment in this document (an 'alpha' record is required)")
        inst = self.instance()
        z = dict(self.z_entries)
        zp = dict(self.zp_entries)
        for e, a, b in zip(inst.edges, inst.lam, inst.lam_prime):
            z.setdefault(e, a * a)
            zp.setdefault(e, b * b)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for table, name in ((z, "z"), (zp, "z_prime")):
                    if (i, j) not in table:
                        raise InstanceFormatError(
                            f"missing {name} entry for non-edge pair ({i}, {j})")
        return Assignment(
            SquaredDistanceMatrix.from_pairs(self.n, z, allow_negative=True),
            SquaredDistanceMatrix.from_pairs(self.n, zp, allow_negative=True),
            self.alpha)


def parse_document(text: str) -> InstanceDocument:
    """Parse a document, reporting the offending line on failure."""
    dim = n = None
    edges, lam, lam_prime = [], [], []
    edge_seen = set()
    points, points_prime = [], []
    z_entries, zp_entries = {}, {}
    alpha = None

    def number(token, line_no):
        try:
            return parse_number(token)
        except (ValueError, ZeroDivisionError):
            raise InstanceFormatError(f"bad number {token!r}", line_no)

    def index(token, line_no):
        try:
            return int(token)
        except ValueError:
            raise InstanceFormatError(f"bad vertex index {token!r}", line_no)

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *rest = line.split()
        if kind == "dim":
            if dim is not None:
                raise InstanceFormatError("duplicate dim record", line_no)
            if len(rest) != 1:
                raise InstanceFormatError("dim takes one field", line_no)
            dim = index(rest[0], line_no)
        elif kind == "vertices":
            if n is not None:
                raise InstanceFormatError("duplicate vertices record", line_no)
            if len(rest) != 1:
                raise InstanceFormatError("vertices takes one field", line_no)
            n = index(rest[0], line_no)
        elif kind == "edge":
            if len(rest) != 4:
                raise InstanceFormatError(
                    "edge takes fields: i j lam lam_prime", line_no)
            i, j = index(rest[0], line_no), index(rest[1], line_no)
            if i == j:
                raise InstanceFormatError(f"self-loop at vertex {i}", line_no)
            key = (min(i, j), max(i, j))
            if key in edge_seen:
                raise InstanceFormatError(f"duplicate edge ({i}, {j})", line_no)
            edge_seen.add(key)
            edges.append((i, j))
            lam.append(number(rest[2], line_no))
            lam_prime.append(number(rest[3], line_no))
        elif kind in ("point", "point_prime"):
            if dim is not None and len(rest) != dim:
                raise InstanceFormatError(
                    f"{kind} needs {dim} coordinates, got {len(rest)}", line_no)
            coords = tuple(number(t, line_no) for t in rest)
            (points if kind == "point" else points_prime).append(coords)
        elif kind in ("z", "z_prime"):
            if len(rest) != 3:
                raise InstanceFormatError(f"{kind} takes fields: i j value", line_no)
            i, j = index(rest[0], line_no), index(rest[1], line_no)
            if i == j:
                raise InstanceFormatError("diagonal entries are fixed at zero", line_no)
            key = (min(i, j), max(i, j))
            table = z_entries if kind == "z" else zp_entries
            if key in table:
                raise InstanceFormatError(f"duplicate {kind} entry {key}", line_no)
            table[key] = number(rest[2], line_no)
        elif kind == "alpha":
            if alpha is not None:
                raise InstanceFormatError("duplicate alpha record", line_no)
            if len(rest) != 1:
                raise InstanceFormatError("alpha takes one field", line_no)
            alpha = number(rest[0], line_no)
        else:
            raise InstanceFormatError(f"unknown record kind {kind!r}", line_no)

    if dim is None:
        raise InstanceFormatError("missing dim record")
    if n is None:
        raise InstanceFormatError("missing vertices record")
    for name, pts in (("point", points), ("point_prime", points_prime)):
        if pts and len(pts) != n:
            raise InstanceFormatError(
                f"{len(pts)} {name} records for {n} vertices")
        for coords in pts:
            if len(coords) != dim:
                raise InstanceFormatError(
                    f"{name} record has {len(coords)} coordinates, needs {dim}")
    for table, name in ((z_entries, "z"), (zp_entries, "z_prime")):
        for i, j in table:
            if not 0 <= i < n or not 0 <= j < n:
                raise InstanceFormatError(f"{name} entry ({i}, {j}) out of range")
    if (z_entries or zp_entries) and alpha is None:
        raise InstanceFormatError("z records without an alpha record")

    doc = InstanceDocument(dim, n, edges, lam, lam_prime, points, points_prime,
                           z_entries, zp_entries, alpha)
    try:
        doc.instance()
    except InputError as exc:
        raise InstanceFormatError(str(exc))
    return doc


def load_document(path) -> InstanceDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc.strerror}")
    return parse_document(text)


def render_document(inst: Instance, points=None, points_prime=None,
                    assignment: Optional[Assignment] = None) -> str:
    """Document text that parses back to the given objects."""
    lines = [f"dim {inst.d}", f"vertices {inst.n}"]
    for e, a, b in zip(inst.edges, inst.lam, inst.lam_prime):
        lines.append(f"edge {e[0]} {e[1]} {format_number(a)} {format_number(b)}")
    for kind, config in (("point", points), ("point_prime", points_prime)):
        if config is not None:
            for pt in config.points:
                lines.append(kind + " " + " ".join(format_number(x) for x in pt))
    if assignment is not None:
        for name, matrix in (("z", assignment.z), ("z_prime", assignment.z_prime)):
            for i in range(inst.n):
                for j in range(i + 1, inst.n):
                    lines.append(f"{name} {i} {j} {format_number(matrix.entry(i, j))}")
        lines.append(f"alpha {format_number(assignment.alpha)}")
    return "\n".join(lines) + "\n"
