"""Text serialization for permutation and matrix groups.

Permutation groups: header line `permgroup n ngens`, then ngens lines of n
whitespace-separated 0-based images.  Matrix groups: header line
`matgroup p f d ngens`, then ngens blocks of d lines, each holding d
integer-encoded field entries, row-major.  Lines starting with `#` are
comments; blank lines are ignored.  Parse failures carry 1-based line
numbers.

One reader serves both formats: it splits the content lines once, checks
the header against its keyword's usage string, and hands the body rows,
with their line numbers, to that keyword's builder.
"""

from __future__ import annotations

from .errors import ParseError, ToolkitError
from .gf import field
from .matgrp import FFMatrix, MatrixGroup, _check_spin_work
from .permgrp import PermGroup, Permutation

_USAGE = {"permgroup": "permgroup n ngens", "matgroup": "matgroup p f d ngens"}


def _load(text: str, keyword: str | None):
    """Split the content lines once, check the header against its keyword's
    usage string, and build the group from the body rows.  keyword None
    accepts either format; otherwise the header must name that one."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((no, stripped.split()))
    if not lines:
        raise ParseError(1, "empty input")
    no, parts = lines[0]
    usage = _USAGE.get(keyword or parts[0])
    if usage is None:
        raise ParseError(no, f"unknown header keyword {parts[0]!r}")
    if keyword is not None and parts[0] != keyword:
        raise ParseError(no, f"expected '{usage}' header")
    if len(parts) != len(usage.split()):
        raise ParseError(no, f"header must be '{usage}'")
    try:
        fields = [int(x) for x in parts[1:]]
    except ValueError:
        raise ParseError(no, "header fields must be integers") from None
    if fields[-2] < 1 or fields[-1] < 0:  # the degree or dimension, and ngens
        raise ParseError(no, f"need {usage.split()[-2]} >= 1 and ngens >= 0")
    return _BUILDERS[parts[0]](no, fields, lines)


def _rows(lines, count: int, width: int, what: str) -> list[tuple[int, list[int]]]:
    """The count body rows after the header, each of width integers, with
    their line numbers.  Too few rows is reported on the last line, extra
    rows on the first extra one."""
    body = lines[1:]
    if len(body) < count:
        raise ParseError(lines[-1][0], f"expected {count} {what}, found {len(body)}")
    if len(body) > count:
        raise ParseError(body[count][0], "trailing content after the last generator")
    rows = []
    for no, tokens in body:
        if len(tokens) != width:
            raise ParseError(no, f"expected {width} entries, got {len(tokens)}")
        try:
            rows.append((no, [int(t) for t in tokens]))
        except ValueError as exc:
            raise ParseError(no, f"non-integer token: {exc}") from None
    return rows


def _perm_group(no: int, fields: list[int], lines) -> PermGroup:
    n, ngens = fields
    gens = []
    for no, images in _rows(lines, ngens, n, "generator lines"):
        try:
            gens.append(Permutation(images))
        except ValueError:
            raise ParseError(no, "line is not a permutation of 0..n-1") from None
    return PermGroup(n, gens)


def _matrix_group(no: int, fields: list[int], lines) -> MatrixGroup:
    p, f, d, ngens = fields
    try:
        spec = field(p, f)
        _check_spin_work(spec.order, d)  # every matrix record runs the spin
    except ToolkitError as exc:
        raise ParseError(no, f"bad header: {exc}") from None
    rows = _rows(lines, ngens * d, d, "matrix rows")
    for no, row in rows:
        if not 0 <= min(row) <= max(row) < spec.order:
            bad = next(e for e in row if not 0 <= e < spec.order)
            raise ParseError(no, f"entry {bad} outside [0, {spec.order})")
    gens = [FFMatrix(spec, [row for _, row in rows[k:k + d]]) for k in range(0, len(rows), d)]
    try:
        return MatrixGroup(spec, d, gens)
    except ValueError:  # a singular generator; the first one names the line
        k = next(k for k, mat in enumerate(gens) if mat.det() == 0)
        raise ParseError(rows[k * d][0], "singular generator") from None


_BUILDERS = {"permgroup": _perm_group, "matgroup": _matrix_group}


def load_group(text: str):
    """Dispatch on the header keyword; returns a PermGroup or MatrixGroup."""
    return _load(text, None)


def load_perm_group(text: str) -> PermGroup:
    return _load(text, "permgroup")


def load_matrix_group(text: str) -> MatrixGroup:
    return _load(text, "matgroup")


def dump_perm_group(group: PermGroup, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"permgroup {group.degree} {len(group.generators)}")
    for g in group.generators:
        lines.append(" ".join(str(x) for x in g.images))
    return "\n".join(lines) + "\n"


def dump_matrix_group(group: MatrixGroup, comment: str | None = None) -> str:
    spec = group.spec
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"matgroup {spec.p} {spec.f} {group.d} {len(group.generators)}")
    for m in group.generators:
        for row in m.rows:
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def dump_group(group, comment: str | None = None) -> str:
    if isinstance(group, PermGroup):
        return dump_perm_group(group, comment)
    if isinstance(group, MatrixGroup):
        return dump_matrix_group(group, comment)
    raise TypeError(f"cannot serialize {type(group).__name__}")
