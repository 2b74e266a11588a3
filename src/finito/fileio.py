"""Plain-text poset files and the emit formats.

Grammar, one statement per line: ``a < b`` declares a cover pair (a
covered by b), a bare identifier declares an isolated point, ``@base x``
names a basepoint, ``#`` starts a comment.  Identifiers match
[A-Za-z0-9_]+ and labels are created in order of first appearance.
``parse_poset`` gives the labelled poset and the index of its ``@base``
point; ``emit`` writes a poset back in one of ``FORMATS``.
"""

from __future__ import annotations

import json
import re
import warnings

from .errors import DuplicateCoverError, ParseError
from .order_complex import _chain_levels, _face_lines
from .poset import FinitePoset, _check_point

_IDENT = re.compile(r"[A-Za-z0-9_]+")
# the labels a poset file and a dot file can hold
_WRITABLE = {"poset": _IDENT, "dot": re.compile(r'[^"\\]*')}

FORMATS = ("poset", "json", "dot", "faces")


def parse_poset(text: str) -> tuple[FinitePoset, int | None]:
    """Parse poset text into the labelled poset and the index of its
    ``@base`` point, None without one.

    Raises ParseError (with line number), or CycleError for a cyclic cover
    relation.  Duplicate cover declarations warn (DuplicateCoverError) and
    are dropped.  A ``@base`` point must be declared by some other
    statement, and a second ``@base`` is refused.
    """
    index: dict[str, int] = {}
    covers = set()
    base_name = None
    base_line = None

    def intern(name: str, lineno: int) -> int:
        if not _IDENT.fullmatch(name):
            raise ParseError(lineno, f"bad identifier {name!r}")
        return index.setdefault(name, len(index))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            parts = line.split()
            if parts[0] != "@base" or len(parts) != 2:
                raise ParseError(lineno, f"unknown directive {line!r}")
            if base_line is not None:
                raise ParseError(lineno, f"a second @base (the first is on line {base_line})")
            base_name, base_line = parts[1], lineno
            continue
        if "<" in line:
            sides = [s.strip() for s in line.split("<")]
            if len(sides) != 2 or not sides[0] or not sides[1]:
                raise ParseError(lineno, f"expected 'a < b', got {line!r}")
            x = intern(sides[0], lineno)
            y = intern(sides[1], lineno)
            if x == y:
                raise ParseError(lineno, f"{sides[0]!r} cannot cover itself")
            if (x, y) in covers:
                warnings.warn(
                    f"line {lineno}: duplicate cover {sides[0]} < {sides[1]}",
                    DuplicateCoverError,
                    stacklevel=2,
                )
                continue
            covers.add((x, y))
            continue
        if len(line.split()) != 1:
            raise ParseError(lineno, f"cannot parse {line!r}")
        intern(line, lineno)

    if not index:
        raise ParseError(None, "no points declared")
    base = None
    if base_name is not None:
        if base_name not in index:
            raise ParseError(base_line, f"basepoint {base_name!r} never declared")
        base = index[base_name]
    return FinitePoset.from_cover_pairs(len(index), covers, tuple(index)), base


def _emittable_label(p: FinitePoset, x: int, format: str = "poset") -> str:
    name = p.label(x)
    if not _WRITABLE[format].fullmatch(name):
        raise ValueError(f"label {name!r} cannot appear in a {format} file")
    return name


def emit(p: FinitePoset, format: str = "poset", base: int | None = None) -> str:
    """Render a poset as text: poset file, json, graphviz dot, or the
    order-complex face list.  Output ordering is deterministic.  A base
    that is not a point of p raises IndexError, and a label the format
    cannot hold ValueError: a poset file takes identifiers only, and a dot
    file no label holding ``"`` or ``\\``."""
    if base is not None:
        _check_point(p, base)
    if format == "poset":
        return _emit_poset(p, base)
    if format == "json":
        return _emit_json(p, base)
    if format == "dot":
        return _emit_dot(p)
    if format == "faces":
        return "".join(map(_face_lines, _chain_levels(p)))
    raise ValueError(f"unknown format {format!r}; pick one of {', '.join(FORMATS)}")


def _emit_poset(p: FinitePoset, base: int | None) -> str:
    touched = {v for pair in p.covers for v in pair}
    lines = [_emittable_label(p, x) for x in range(p.n) if x not in touched]
    lines += [f"{_emittable_label(p, x)} < {_emittable_label(p, y)}" for x, y in p.covers]
    if base is not None:
        lines.append(f"@base {_emittable_label(p, base)}")
    return "\n".join(lines) + "\n"


def _emit_json(p: FinitePoset, base: int | None) -> str:
    doc = {
        "labels": [p.label(x) for x in range(p.n)],
        "covers": [[p.label(x), p.label(y)] for x, y in p.covers],
        "base": p.label(base) if base is not None else None,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit_dot(p: FinitePoset) -> str:
    """Hasse diagram with lower elements below: rank groups by level.  A
    quoted DOT string has one escape, ``\\"``, so a label ending in ``\\``
    would escape its closing quote however it were escaped: a label
    holding ``"`` or ``\\`` is refused."""
    names = [f'"{_emittable_label(p, x, "dot")}"' for x in range(p.n)]
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
    by_level: dict[int, list[int]] = {}
    for x in range(p.n):
        by_level.setdefault(p.levels[x], []).append(x)
    for level in sorted(by_level):
        rank = " ".join(f"{names[x]};" for x in by_level[level])
        lines.append(f"  {{ rank=same; {rank} }}")
    for x, y in p.covers:
        lines.append(f"  {names[x]} -> {names[y]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_map(text: str, src: FinitePoset, dst: FinitePoset) -> list[int]:
    """Parse ``a -> b`` lines into a total map from src points to dst
    points, each named by its label (its index for an unlabelled poset)."""
    src_index = {src.label(x): x for x in range(src.n)}
    dst_index = {dst.label(y): y for y in range(dst.n)}
    mapping: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [s.strip() for s in line.split("->")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(lineno, f"expected 'src -> dst', got {line!r}")
        a, b = parts
        if a not in src_index:
            raise ParseError(lineno, f"{a!r} is not a point of the source")
        if b not in dst_index:
            raise ParseError(lineno, f"{b!r} is not a point of the target")
        if src_index[a] in mapping:
            raise ParseError(lineno, f"{a!r} mapped twice")
        mapping[src_index[a]] = dst_index[b]
    missing = [name for name, i in src_index.items() if i not in mapping]
    if missing:
        raise ParseError(None, f"unmapped source points: {', '.join(sorted(missing))}")
    return [mapping[i] for i in range(src.n)]
