"""Text serialization for permutation and matrix groups.

Permutation groups: header line `permgroup n ngens`, then ngens lines of n
whitespace-separated 0-based images.  Matrix groups: header line
`matgroup p f d ngens`, then ngens blocks of d lines, each holding d
integer-encoded field entries, row-major.  Lines starting with `#` are
comments; blank lines are ignored.  Parse failures carry 1-based line
numbers.
"""

from __future__ import annotations

from .errors import ParseError, ToolkitError
from .gf import field
from .matgrp import FFMatrix, MatrixGroup, _check_spin_work
from .permgrp import PermGroup, Permutation


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((no, stripped))
    return out


def _int_fields(no: int, line: str, expect: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != expect:
        raise ParseError(no, f"expected {expect} {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(no, f"non-integer token in {what}: {exc}") from None


def load_perm_group(text: str) -> PermGroup:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    no, header = lines[0]
    parts = header.split()
    if not parts or parts[0] != "permgroup":
        raise ParseError(no, "expected 'permgroup n ngens' header")
    if len(parts) != 3:
        raise ParseError(no, "header must be 'permgroup n ngens'")
    try:
        n, ngens = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(no, "header fields must be integers") from None
    if n < 1 or ngens < 0:
        raise ParseError(no, "need n >= 1 and ngens >= 0")
    body = lines[1:]
    if len(body) < ngens:
        raise ParseError(lines[-1][0], f"expected {ngens} generator lines, found {len(body)}")
    if len(body) > ngens:
        raise ParseError(body[ngens][0], "trailing content after the last generator")
    gens = []
    for no, line in body:
        images = _int_fields(no, line, n, "images")
        if sorted(images) != list(range(n)):
            raise ParseError(no, "line is not a permutation of 0..n-1")
        gens.append(Permutation(tuple(images)))
    return PermGroup(n, gens)


def dump_perm_group(group: PermGroup, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"permgroup {group.degree} {len(group.generators)}")
    for g in group.generators:
        lines.append(" ".join(str(x) for x in g.images))
    return "\n".join(lines) + "\n"


def load_matrix_group(text: str) -> MatrixGroup:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    no, header = lines[0]
    parts = header.split()
    if not parts or parts[0] != "matgroup":
        raise ParseError(no, "expected 'matgroup p f d ngens' header")
    if len(parts) != 5:
        raise ParseError(no, "header must be 'matgroup p f d ngens'")
    try:
        p, f, d, ngens = (int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(no, "header fields must be integers") from None
    if d < 1 or ngens < 0:
        raise ParseError(no, "need d >= 1 and ngens >= 0")
    try:
        spec = field(p, f)
        _check_spin_work(spec.order, d)  # every matrix record runs the spin
    except ToolkitError as exc:
        raise ParseError(no, f"bad header: {exc}") from None
    body = lines[1:]
    if len(body) < ngens * d:
        raise ParseError(
            lines[-1][0], f"expected {ngens * d} matrix rows, found {len(body)}"
        )
    if len(body) > ngens * d:
        raise ParseError(body[ngens * d][0], "trailing content after the last matrix")
    gens = []
    for k in range(ngens):
        rows = []
        for i in range(d):
            no, line = body[k * d + i]
            entries = _int_fields(no, line, d, "entries")
            for e in entries:
                if not 0 <= e < spec.order:
                    raise ParseError(no, f"entry {e} outside [0, {spec.order})")
            rows.append(entries)
        mat = FFMatrix(spec, rows)
        if mat.det() == 0:
            raise ParseError(body[k * d][0], "singular generator")
        gens.append(mat)
    return MatrixGroup(spec, d, gens)


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


def load_group(text: str):
    """Dispatch on the header keyword; returns a PermGroup or MatrixGroup."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    keyword = lines[0][1].split()[0]
    if keyword == "permgroup":
        return load_perm_group(text)
    if keyword == "matgroup":
        return load_matrix_group(text)
    raise ParseError(lines[0][0], f"unknown header keyword {keyword!r}")


def dump_group(group, comment: str | None = None) -> str:
    if isinstance(group, PermGroup):
        return dump_perm_group(group, comment)
    if isinstance(group, MatrixGroup):
        return dump_matrix_group(group, comment)
    raise TypeError(f"cannot serialize {type(group).__name__}")
