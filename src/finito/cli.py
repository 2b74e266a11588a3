"""Command line front end.

Exit codes: 0 for success and confirmed verifications, 1 for a violated
verification or failed check (the violator is printed), 2 for input
errors.  Every subcommand takes --json for a machine-readable mirror of
the text output.  NO_COLOR disables ANSI styling; FINITO_MAX_POINTS
overrides the enumeration cap.  ``python -m finito`` is equivalent to the
installed ``finito`` command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import FinitoError, NotContinuousError
from .fileio import FORMATS, emit, parse_map, parse_poset
from .models import (
    _wedge_models,
    check_wedge_model,
    enumerate_posets,
    enumeration_stats,
    is_square,
    minimal_wedge_size,
    sphere_model,
    verify_sphere_theorem,
)
from .order_complex import euler_characteristic, homology, order_complex
from .pi1 import edge_path_presentation, free_rank, presentation_text, tietze_simplify
from .reduction import (
    beat_points,
    core,
    mccord_check,
    osaki_closed_reduction,
    osaki_open_reduction,
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
    doc = parse_poset(_read(path))
    return doc.to_poset(), doc


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2))
    return 0


# -- subcommands ---------------------------------------------------------------


def cmd_info(args) -> int:
    p, _ = _load(args.file)
    bps = beat_points(p)
    # homology is a homotopy invariant, and the core's complex is the smaller
    betti = homology(order_complex(core(p).final)).betti
    data = {
        "points": p.n,
        "height": p.height,
        "components": len(p.connected_components()),
        "euler": euler_characteristic(p),
        "b0": betti[0],
        "b1": betti[1] if len(betti) > 1 else 0,
        "beat_points": [
            {"point": p.label(r.element), "kind": r.kind, "witness": p.label(r.witness)}
            for r in bps
        ],
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
                "removed": [
                    {
                        "point": p.label(r.element),
                        "kind": r.kind,
                        "witness": p.label(r.witness),
                    }
                    for r in trace.removed
                ],
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
    h = homology(order_complex(p))
    if args.json:
        return _emit_json(
            {"betti": list(h.betti), "torsion": [list(t) for t in h.torsion]}
        )
    print(h)
    return 0


def cmd_pi1(args) -> int:
    p, doc = _load(args.file)
    if args.base is not None:
        try:
            base = doc.labels.index(args.base)
        except ValueError:
            raise ValueError(f"basepoint {args.base!r} is not a point") from None
    else:
        base = doc.base if doc.base is not None else 0
    pres = edge_path_presentation(p, base)
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
    p, _ = _load(args.file)
    rows = []
    for x in range(p.n):
        open_q = osaki_open_reduction(p, x)
        closed_q = osaki_closed_reduction(p, x)
        rows.append(
            {
                "point": p.label(x),
                "open": None if open_q is None else {"points": open_q.n},
                "closed": None if closed_q is None else {"points": closed_q.n},
            }
        )
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
    src, src_doc = _load(args.src)
    dst, dst_doc = _load(args.dst)
    mapping = parse_map(_read(args.mapfile), src_doc, dst_doc)
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


def cmd_sphere(args) -> int:
    p = sphere_model(args.n)
    fmt = "json" if args.json and args.format == "poset" else args.format
    print(emit(p, fmt), end="")
    return 0


def cmd_verify_spheres(args) -> int:
    report = verify_sphere_theorem(args.max_h, max_points=args.max_points)
    heights = sorted(report.equality_classes)
    if args.json:
        _emit_json(
            {
                "max_height": report.max_height,
                "points_scanned": report.points_scanned,
                "classes_scanned": report.classes_scanned,
                "lower_bound_violations": [
                    emit(p) for p in report.lower_bound_violations
                ],
                "equality_classes": {
                    str(h): len(report.equality_classes[h]) for h in heights
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
        classes = report.equality_classes[h]
        good = len(classes) == 1 and not any(
            p in report.equality_violations for p in classes
        )
        print(
            f"height {h}: {len(classes)} class(es) with exactly {2 * h} points, "
            f"expected the {2 * h}-point sphere model alone: {_verdict(good)}"
        )
    for p in report.lower_bound_violations + report.equality_violations:
        print("violator:")
        print(emit(p), end="")
    print("confirmed" if report.confirmed else "VIOLATED")
    return 0 if report.confirmed else 1


def cmd_verify_wedges(args) -> int:
    rows = []
    failures = []
    found = _wedge_models(range(1, args.max_n + 1), args.max_points)
    for n, models in found.items():
        count = len(models)
        size = minimal_wedge_size(n)
        square = is_square(n)
        ok = (count == 1) == square and count >= 1
        for p in models:
            cert = check_wedge_model(p, n)
            if not (cert.connected and cert.b1 == n):
                ok = False
                failures.append(p)
        codes = {p.canonical_form().code for p in models}
        if {p.opposite().canonical_form().code for p in models} != codes:
            ok = False
        rows.append(
            {
                "n": n,
                "size": size,
                "edges": size + n - 1,
                "models": count,
                "square": square,
                "unique": count == 1,
                "ok": ok,
            }
        )
    confirmed = all(r["ok"] for r in rows)
    if args.json:
        _emit_json({"rows": rows, "confirmed": confirmed})
        return 0 if confirmed else 1
    print(" n  size  edges  models  square  unique")
    for r in rows:
        print(
            f"{r['n']:>2}  {r['size']:>4}  {r['edges']:>5}  {r['models']:>6}"
            f"  {str(r['square']):<6}  {str(r['unique']):<6} {_verdict(r['ok'])}"
        )
    for p in failures:
        print("violator:")
        print(emit(p), end="")
    print("confirmed" if confirmed else "VIOLATED")
    return 0 if confirmed else 1


def _parse_filter(spec: str):
    if spec == "connected":
        return lambda p: p.is_connected()
    if spec == "minimal":
        return lambda p: not beat_points(p)
    if spec.startswith("height="):
        value = spec.split("=", 1)[1]
        try:
            h = int(value)
        except ValueError:
            raise ValueError(
                f"the value of --filter height=H must be a whole number, got {value!r}"
            ) from None
        return lambda p: p.height == h
    raise ValueError(f"unknown filter {spec!r} (connected, minimal, or height=H)")


def cmd_enumerate(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    pred = _parse_filter(args.filter) if args.filter else None
    classes = enumerate_posets(args.k, max_points=args.max_points, workers=args.workers)
    if pred:
        classes = [p for p in classes if pred(p)]
        data = {"k": args.k, "filter": args.filter, "count": len(classes)}
        heading = [f"k={args.k} [{args.filter}]: {len(classes)} classes"]
    else:
        if args.emit:
            classes = list(classes)
        stats = enumeration_stats(args.k, classes)
        data = {"k": args.k, "total": stats.total, "by_filter": stats.by_filter}
        heading = [f"k={args.k}: {stats.total} classes"]
        heading += [f"  {name:<12}{count}" for name, count in stats.by_filter.items()]
    if args.json:
        if args.emit:
            data["classes"] = [emit(p) for p in classes]
        return _emit_json(data)
    print("\n".join(heading))
    if args.emit:
        for p in classes:
            print()
            print(emit(p), end="")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finito",
        description="Finite topological spaces: reductions, invariants, and model search.",
    )
    parser.add_argument("--version", action="version", version=f"finito {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("info", cmd_info, "size, height, invariants and beat points")
    sp.add_argument("file", nargs="?", default="-")
    sp = add("core", cmd_core, "beat-point removal trace and the core")
    sp.add_argument("file", nargs="?", default="-")
    sp = add("homology", cmd_homology, "Betti numbers and torsion of the order complex")
    sp.add_argument("file", nargs="?", default="-")
    sp = add("pi1", cmd_pi1, "fundamental group presentation")
    sp.add_argument("file", nargs="?", default="-")
    sp.add_argument("--base", help="basepoint label (defaults to @base or first point)")
    sp = add("osaki", cmd_osaki, "applicable open/closed quotient reductions per point")
    sp.add_argument("file", nargs="?", default="-")
    sp = add("mccord", cmd_mccord, "basis-like cover criterion for a given map")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument("mapfile", help="lines of the form 'src -> dst'")
    sp = add("sphere", cmd_sphere, "emit the 2N+2 point sphere model")
    sp.add_argument("n", type=int)
    sp.add_argument("--format", choices=FORMATS, default="poset")

    verify = sub.add_parser("verify", help="machine-check the classification results")
    vsub = verify.add_subparsers(dest="target", required=True)
    sp = vsub.add_parser("spheres", help="minimal spaces of small height")
    sp.set_defaults(handler=cmd_verify_spheres)
    sp.add_argument("--max-h", type=int, required=True)
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp = vsub.add_parser("wedges", help="minimal models of circle wedges")
    sp.set_defaults(handler=cmd_verify_wedges)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--json", action="store_true")

    sp = add("enumerate", cmd_enumerate, "poset classes with k points")
    sp.add_argument("k", type=int)
    sp.add_argument("--filter", help="connected, minimal, or height=H")
    sp.add_argument("--emit", action="store_true", help="print each class")
    sp.add_argument("--max-points", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FinitoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
