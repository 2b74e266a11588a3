"""Command line front end.

Exit codes: 0 for success and confirmed verifications, 1 for a violated
verification or failed check (the violator is printed), 2 for input
errors, 141 (128 + SIGPIPE) with nothing printed when the reader of
standard output closes it early, as ``head`` does.  Every subcommand
takes --json for a machine-readable mirror of the text output.  NO_COLOR
disables ANSI styling.  ``enumerate`` and ``verify spheres`` refuse more
than 10 points before any work, ``sphere N --format faces`` refuses
N > 10 before the model is built, ``info`` and ``homology`` refuse a core
of more than 250,000 chains (``order_complex.MAX_CHAINS``), and ``sphere``
refuses --json with --format dot or faces.  ``python -m finito`` runs as
``finito``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import warnings

from . import __version__
from .errors import DuplicateCoverError, FinitoError, NotContinuousError
from .fileio import FORMATS, emit, parse_map, parse_poset
from .models import (
    _enumeration,
    sphere_model,
    verify_sphere_theorem,
    verify_wedge_theorem,
)
from .order_complex import MAX_CHAINS, _chain_levels, _face_lines, poset_homology
from .pi1 import edge_path_presentation, free_rank, presentation_text, tietze_simplify
from .poset import FinitePoset
from .reduction import (
    beat_points,
    core,
    mccord_check,
    osaki,
)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok: bool) -> str:
    word = "ok" if ok else "FAILED"
    if not _color_enabled():
        return word
    return f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    """The poset in the file and its ``@base`` index (None without one);
    each duplicate cover is one ``warning:`` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DuplicateCoverError)
        p, base = parse_poset(_read(path))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return p, base


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


def _beat_point(p, r) -> dict:
    return {"point": p.label(r.element), "kind": r.kind, "witness": p.label(r.witness)}


# -- subcommands ---------------------------------------------------------------


def cmd_info(args) -> int:
    p, _ = _load(args.file)
    bps = beat_points(p)
    # p has the weak homotopy type of its core: b0 and euler are read off its homology
    betti = poset_homology(p).betti
    data = {
        "points": p.n,
        "height": p.height,
        "components": betti[0],
        "euler": sum((-1) ** d * b for d, b in enumerate(betti)),
        "b0": betti[0],
        "b1": betti[1] if len(betti) > 1 else 0,
        "beat_points": [_beat_point(p, r) for r in bps],
        "minimal": not bps,
    }
    if args.json:
        return _emit_json(data)
    for key in ("points", "height", "components", "euler", "b0", "b1"):
        print(f"{key:<12}{data[key]}")
    if bps:
        listing = ", ".join(
            f"{d['point']} ({d['kind']}, witness {d['witness']})"
            for d in data["beat_points"]
        )
        print(f"{'beat points':<12}{listing}")
    else:
        print(f"{'beat points':<12}none")
    print(f"{'minimal':<12}{'yes' if data['minimal'] else 'no'}")
    return 0


def cmd_core(args) -> int:
    p, _ = _load(args.file)
    trace = core(p)
    if args.json:
        return _emit_json(
            {
                "removed": [_beat_point(p, r) for r in trace.removed],
                "core_points": trace.final.n,
                "core": emit(trace.final),
            }
        )
    for r in trace.removed:
        print(f"remove {p.label(r.element)} ({r.kind} beat point, witness {p.label(r.witness)})")
    print(f"core has {trace.final.n} point{'s' if trace.final.n != 1 else ''}:")
    print(emit(trace.final), end="")
    return 0


def cmd_homology(args) -> int:
    p, _ = _load(args.file)
    h = poset_homology(p)
    if args.json:
        return _emit_json(
            {"betti": list(h.betti), "torsion": [list(t) for t in h.torsion]}
        )
    print(h)
    return 0


def cmd_pi1(args) -> int:
    """π1 at the basepoint, computed on the core at the retracted basepoint:
    the core is a strong deformation retract, so the groups agree.
    ``base`` names the given basepoint; ``generators``, ``relators`` and
    ``presentation`` describe the core's edge-path presentation, and
    ``simplified`` and ``free_rank`` its Tietze simplification."""
    p, base = _load(args.file)
    if args.base is not None:
        try:
            base = p.labels.index(args.base)
        except ValueError:
            raise ValueError(f"basepoint {args.base!r} is not a point") from None
    elif base is None:
        base = 0
    trace = core(p)
    pres = edge_path_presentation(trace.final, trace.retract(base))
    simp = tietze_simplify(pres)
    rank = free_rank(simp)
    if args.json:
        return _emit_json(
            {
                "base": p.label(base),
                "generators": pres.generators,
                "relators": [list(r) for r in pres.relators],
                "presentation": presentation_text(pres),
                "simplified": presentation_text(simp),
                "free_rank": rank,
            }
        )
    print(f"{'base':<14}{p.label(base)}")
    print(f"{'presentation':<14}{presentation_text(pres)}")
    print(f"{'simplified':<14}{presentation_text(simp)}")
    if rank is not None:
        print(f"{'free rank':<14}{rank}")
    return 0


def cmd_osaki(args) -> int:
    """The point count of each applicable reduction, decided from Osaki's
    hypothesis alone; no quotient is built."""
    p, _ = _load(args.file)
    rows = [
        {
            "point": p.label(x),
            "open": None if open_n is None else {"points": open_n},
            "closed": None if closed_n is None else {"points": closed_n},
        }
        for x, (open_n, closed_n) in enumerate(osaki(p))
    ]
    if args.json:
        return _emit_json({"points": p.n, "reductions": rows})
    width = max(len(r["point"]) for r in rows)

    def cell(entry):
        if entry is None:
            return "not applicable"
        size = entry["points"]
        note = " (no shrink)" if size == p.n else ""
        return f"{p.n} -> {size}{note}"

    for r in rows:
        print(f"{r['point']:<{width}}  open: {cell(r['open']):<22} closed: {cell(r['closed'])}")
    return 0


def cmd_mccord(args) -> int:
    src, _ = _load(args.src)
    dst, _ = _load(args.dst)
    mapping = parse_map(_read(args.mapfile), src, dst)
    try:
        report = mccord_check(src, dst, mapping)
    except NotContinuousError as exc:
        x, y = exc.pair
        if args.json:
            _emit_json({"continuous": False, "violation": [src.label(x), src.label(y)]})
        else:
            print(f"not continuous: {src.label(x)} <= {src.label(y)} is not preserved")
        return 1
    if args.json:
        _emit_json(
            {
                "continuous": True,
                "ok": report.ok,
                "preimages": [
                    {
                        "point": dst.label(y),
                        "preimage": [src.label(s) for s in pre],
                        "contractible": good,
                    }
                    for y, pre, good in report.entries
                ],
            }
        )
        return 0 if report.ok else 1
    print("continuous: yes")
    for y, pre, good in report.entries:
        names = "{" + ",".join(src.label(s) for s in pre) + "}"
        print(f"preimage of U_{dst.label(y)} = {names}: "
              f"{'contractible' if good else 'NOT contractible'}")
    print(f"basis-like cover criterion: {_verdict(report.ok)}")
    return 0 if report.ok else 1


# the largest N whose face list ``sphere`` prints: S^N's model has 3^(N+1) - 1 chains
MAX_FACES_DIM = next(n for n in itertools.count() if 3 ** (n + 2) - 1 > MAX_CHAINS)


def cmd_sphere(args) -> int:
    if args.format == "faces" and args.n > MAX_FACES_DIM:
        raise ValueError(f"N={args.n} exceeds the face-list limit of N = {MAX_FACES_DIM}"
                         f" (3^(N+1) - 1 faces)")
    if args.json and args.format in ("dot", "faces"):
        raise ValueError(f"--json cannot be combined with --format {args.format}")
    fmt = "json" if args.json else args.format
    p = sphere_model(args.n)
    if fmt == "faces":  # the text of emit(p, "faces"), one dimension at a time
        for level in _chain_levels(p):
            print(_face_lines(level), end="")
    else:
        print(emit(p, fmt), end="")
    return 0


def cmd_verify_spheres(args) -> int:
    report = verify_sphere_theorem(args.max_h)
    heights = range(1, report.max_height + 1)
    if args.json:
        _emit_json(
            {
                "max_height": report.max_height,
                "points_scanned": report.points_scanned,
                "classes_scanned": report.classes_scanned,
                "classes_per_size": report.classes_per_size,
                "lower_bound_violations": [
                    emit(p) for p in report.lower_bound_violations
                ],
                "equality_classes": {
                    str(h): len(report.equality_classes.get(h, [])) for h in heights
                },
                "equality_violations": [emit(p) for p in report.equality_violations],
                "confirmed": report.confirmed,
            }
        )
        return 0 if report.confirmed else 1
    print(
        f"scanned {report.classes_scanned} classes "
        f"with at most {report.points_scanned} points"
    )
    lb_ok = not report.lower_bound_violations
    print(f"every minimal non-singleton space has >= 2*height points: {_verdict(lb_ok)}")
    for h in heights:
        print(
            f"height {h}: {len(report.equality_classes.get(h, []))} class(es) with "
            f"exactly {2 * h} points, expected the {2 * h}-point sphere model alone: "
            f"{_verdict(report.height_confirmed(h))}"
        )
    counts = ", ".join(map(str, report.classes_per_size.values()))
    print(f"classes per size 1..{report.points_scanned}: {counts},"
          f" expected OEIS A000112: {_verdict(report.counts_confirmed)}")
    for p in report.lower_bound_violations + report.equality_violations:
        print("violator:")
        print(emit(p), end="")
    print("confirmed" if report.confirmed else "VIOLATED")
    return 0 if report.confirmed else 1


def cmd_verify_wedges(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    report = verify_wedge_theorem(args.max_n)
    if args.json:
        _emit_json({"rows": [r._asdict() for r in report.rows], "confirmed": report.confirmed})
        return 0 if report.confirmed else 1
    print(" n  size  edges  models  square  unique")
    for r in report.rows:
        print(
            f"{r.n:>2}  {r.size:>4}  {r.edges:>5}  {r.models:>6}"
            f"  {str(r.square):<6}  {str(r.unique):<6} {_verdict(r.ok)}"
        )
    for p in report.violators:
        print("violator:")
        print(emit(p), end="")
    print("confirmed" if report.confirmed else "VIOLATED")
    return 0 if report.confirmed else 1


def _filter_name(spec: str) -> str:
    """The filter name that --filter SPEC asks for: height=03 is height=3.
    H is ASCII digits with an optional leading minus sign."""
    if spec in ("connected", "minimal"):
        return spec
    if spec.startswith("height="):
        value = spec.split("=", 1)[1]
        digits = value.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(
                f"the value of --filter height=H must be a whole number, got {value!r}"
            )
        h = int(value)
        if h < 1:
            raise ValueError(f"the value of --filter height=H must be at least 1, got {value!r}")
        return f"height={h}"
    raise ValueError(f"unknown filter {spec!r} (connected, minimal, or height=H)")


def cmd_enumerate(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise ValueError(
            f"--workers must be from 1 to {cpus} (the CPU count), got {args.workers}"
        )
    name = _filter_name(args.filter) if args.filter else None
    stats, codes = _enumeration(args.k, (name or "") if args.emit else None, args.workers)
    if name:
        count = stats.by_filter.get(name, 0)
        data = {"k": args.k, "filter": args.filter, "count": count}
        heading = [f"k={args.k} [{args.filter}]: {count} classes"]
    else:
        data = {"k": args.k, "total": stats.total, "by_filter": stats.by_filter}
        heading = [f"k={args.k}: {stats.total} classes"]
        heading += [f"  {key:<12}{value}" for key, value in stats.by_filter.items()]
    # each class is decoded only as it is printed
    classes = (FinitePoset._from_code(code) for code in codes)
    if args.json:
        if args.emit:
            data["classes"] = [emit(p) for p in classes]
        return _emit_json(data)
    print("\n".join(heading))
    for p in classes:
        print()
        print(emit(p), end="")
    return 0


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finito",
        description="Finite topological spaces: reductions, invariants, and model search.",
    )
    parser.add_argument("--version", action="version", version=f"finito {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, handler, help_text, file=False):
        sp = subparsers.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if file:
            sp.add_argument("file", nargs="?", default="-")
        return sp

    add(sub, "info", cmd_info, "size, height, invariants and beat points", file=True)
    add(sub, "core", cmd_core, "beat-point removal trace and the core", file=True)
    add(sub, "homology", cmd_homology, "Betti numbers and torsion of the order complex", file=True)
    sp = add(sub, "pi1", cmd_pi1, "fundamental group presentation", file=True)
    sp.add_argument("--base", help="basepoint label (defaults to @base or first point)")
    add(sub, "osaki", cmd_osaki, "applicable open/closed quotient reductions per point", file=True)
    sp = add(sub, "mccord", cmd_mccord, "basis-like cover criterion for a given map")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("mapfile", help="lines of the form 'src -> dst'")
    sp = add(sub, "sphere", cmd_sphere, "emit the 2N+2 point sphere model")
    sp.add_argument("n", type=int)
    sp.add_argument("--format", choices=FORMATS, default="poset",
                    help=f"output format; faces needs N <= {MAX_FACES_DIM}")

    verify = sub.add_parser("verify", help="machine-check the classification results")
    vsub = verify.add_subparsers(dest="target", required=True)
    sp = add(vsub, "spheres", cmd_verify_spheres, "minimal spaces of small height")
    sp.add_argument("--max-h", type=int, required=True)
    sp = add(vsub, "wedges", cmd_verify_wedges, "minimal models of circle wedges")
    sp.add_argument("--max-n", type=int, required=True)

    sp = add(sub, "enumerate", cmd_enumerate, "poset classes with k points")
    sp.add_argument("k", type=int)
    sp.add_argument("--filter", help="connected, minimal, or height=H")
    sp.add_argument("--emit", action="store_true", help="print each class")
    sp.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The parser is built once per process, on the first call, and binds the
    ``cmd_*`` handlers as they stand then; nothing is built at import.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # else the flush at interpreter exit raises again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FinitoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
