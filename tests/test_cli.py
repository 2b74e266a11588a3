import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finito.cli
import finito.fileio
from finito import (
    FinitePoset,
    beat_points,
    emit,
    edge_path_presentation,
    enumerate_posets,
    models,
    poset,
    presentation_text,
    tietze_simplify,
    verify_wedge_theorem,
    wedge_uniqueness_scan,
)
from finito.cli import main
from finito.fileio import parse_poset
from finito.order_complex import MAX_CHAINS, _chain_totals

COUNTER = """\
c < a1
d < a1
c < b
d < b
e < b
d < a2
e < a2
"""

SUSPENDED = """\
c < a
d < a
e < a
c < b
d < b
e < b
"""

GOOD_MAP = """\
a1 -> a
a2 -> a
b -> b
c -> c
d -> d
e -> e
"""


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "x.poset"
    path.write_text(COUNTER)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_counterexample(capsys, counter_file):
    code, out, _ = run(capsys, "info", counter_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == 6
    assert data["euler"] == -1
    assert data["b1"] == 2
    assert data["beat_points"] == []
    assert data["minimal"] is True


def test_info_text_output(capsys, counter_file):
    code, out, _ = run(capsys, "info", counter_file)
    assert code == 0
    assert "euler       -1" in out
    assert "minimal     yes" in out


def test_core_command(capsys, tmp_path):
    path = tmp_path / "c.poset"
    path.write_text("d < b\nb < a\nc < a\n")
    code, out, _ = run(capsys, "core", str(path))
    assert code == 0
    assert "core has 1 point" in out


def test_homology_command(capsys, counter_file):
    code, out, _ = run(capsys, "homology", counter_file, "--json")
    assert code == 0
    assert json.loads(out) == {"betti": [1, 2], "torsion": [[], []]}


PI1_TEXT = """\
base          c
presentation  < a, b | >
simplified    < a, b | >
free rank     2
"""

PI1_JSON = """\
{
  "base": "c",
  "generators": 2,
  "relators": [],
  "presentation": "< a, b | >",
  "simplified": "< a, b | >",
  "free_rank": 2
}
"""


def test_pi1_command(capsys, counter_file):
    # X is minimal, so its core is X itself and every byte is as before
    for base in ((), ("--base", "c")):
        assert run(capsys, "pi1", counter_file, *base) == (0, PI1_TEXT, "")
        assert run(capsys, "pi1", counter_file, *base, "--json") == (0, PI1_JSON, "")


def full_space_presentation(path, base):
    """The edge-path presentation of the whole space in the file."""
    p, _ = parse_poset(Path(path).read_text())
    return edge_path_presentation(p, p.labels.index(base))


def full_space_pi1(path, base):
    """``simplified`` of the edge-path presentation of the whole space."""
    return presentation_text(tietze_simplify(full_space_presentation(path, base)))


def check_pi1_on_the_core(capsys, tmp_path, classes):
    path = tmp_path / "p.poset"
    checked = 0
    for p in classes:
        if not p.is_connected():
            continue
        path.write_text(emit(p))
        _, out, _ = run(capsys, "info", "--json", str(path))
        b1 = json.loads(out)["b1"]
        for base in parse_poset(path.read_text())[0].labels:
            code, out, _ = run(capsys, "pi1", "--json", "--base", base, str(path))
            data = json.loads(out)
            assert code == 0 and data["base"] == base
            assert data["simplified"] == full_space_pi1(path, base), (emit(p), base)
            assert data["free_rank"] == b1, (emit(p), base)
            checked += 1
    return checked


def test_pi1_on_the_core_matches_the_full_space(capsys, tmp_path, classes_upto):
    # 1, 1, 3, 10, 44 and 238 connected classes of 1..6 points (OEIS A000608)
    assert check_pi1_on_the_core(capsys, tmp_path, classes_upto(6)) == 1700


@pytest.mark.slow
def test_pi1_on_the_core_matches_the_full_space_at_seven_points(capsys, tmp_path, classes_upto):
    seven = [p for p in classes_upto(7) if p.n == 7]  # 1650 of them connected
    assert check_pi1_on_the_core(capsys, tmp_path, seven) == 11550


SPHERE2 = "".join(f"{x} < {y}\n" for x in ("a0", "a1") for y in ("b0", "b1")) + "".join(
    f"{x} < {y}\n" for x in ("b0", "b1") for y in ("c0", "c1"))


def test_pi1_at_a_basepoint_the_core_removes(capsys, tmp_path):
    # a point t added below a1 of the circle model, and below c1 of the
    # sphere model; t is declared first, so the core removes it and
    # retracts it to its witness, which the core's presentation is rooted at
    sphere = tmp_path / "sphere.poset"
    sphere.write_text(SPHERE2)
    assert full_space_presentation(sphere, "c1") != full_space_presentation(sphere, "a0")
    for space, witness, simplified, rank in (
        ("a0 < b0\na0 < b1\na1 < b0\na1 < b1\n", "a1", "< a | >", 1),
        (SPHERE2, "c1", "<  | >", 0),
    ):
        named, tagged, core_file = (tmp_path / f"{name}.poset" for name in ("n", "t", "c"))
        named.write_text(f"t\n{space}t < {witness}\n")
        tagged.write_text(named.read_text() + "@base t\n")
        core_file.write_text(space)
        rooted = full_space_presentation(core_file, witness)
        for argv in (("--base", "t", str(named)), (str(tagged),)):
            code, out, _ = run(capsys, "pi1", "--json", *argv)
            data = json.loads(out)
            assert code == 0 and data["base"] == "t"
            assert data["generators"] == rooted.generators
            assert data["relators"] == [list(r) for r in rooted.relators]
            assert data["presentation"] == presentation_text(rooted)
            assert data["simplified"] == full_space_pi1(named, "t") == simplified
            assert data["free_rank"] == rank
        assert run(capsys, "pi1", "--base", "t", str(named)) == run(capsys, "pi1", str(tagged))


def test_pi1_of_long_chain_is_presented_on_one_point(capsys, tmp_path, monkeypatch):
    n = 110
    path = tmp_path / "chain.poset"
    path.write_text("".join(f"p{x} < p{x + 1}\n" for x in range(n - 1)))
    sizes, present = [], finito.cli.edge_path_presentation
    monkeypatch.setattr(finito.cli, "edge_path_presentation",
                        lambda p, x0: sizes.append(p.n) or present(p, x0))
    code, out, _ = run(capsys, "pi1", "--json", str(path))
    data = json.loads(out)
    assert code == 0 and data["base"] == "p0"
    assert data["generators"] == 0 and data["relators"] == []
    assert data["simplified"] == "<  | >" and data["free_rank"] == 0
    assert sizes == [1]


OSAKI_TEXT = """\
c   open: 6 -> 6 (no shrink)     closed: not applicable
a1  open: not applicable         closed: 6 -> 6 (no shrink)
d   open: 6 -> 6 (no shrink)     closed: not applicable
b   open: not applicable         closed: 6 -> 6 (no shrink)
e   open: 6 -> 6 (no shrink)     closed: not applicable
a2  open: not applicable         closed: 6 -> 6 (no shrink)
"""


OSAKI_JSON = """\
{
  "points": 6,
  "reductions": [
    {
      "point": "c",
      "open": {
        "points": 6
      },
      "closed": null
    },
    {
      "point": "a1",
      "open": null,
      "closed": {
        "points": 6
      }
    },
    {
      "point": "d",
      "open": {
        "points": 6
      },
      "closed": null
    },
    {
      "point": "b",
      "open": null,
      "closed": {
        "points": 6
      }
    },
    {
      "point": "e",
      "open": {
        "points": 6
      },
      "closed": null
    },
    {
      "point": "a2",
      "open": null,
      "closed": {
        "points": 6
      }
    }
  ]
}
"""


def test_osaki_command(capsys, counter_file):
    assert run(capsys, "osaki", counter_file) == (0, OSAKI_TEXT, "")
    assert run(capsys, "osaki", counter_file, "--json") == (0, OSAKI_JSON, "")


def test_mccord_command(capsys, tmp_path):
    src = tmp_path / "x.poset"
    dst = tmp_path / "y.poset"
    mp = tmp_path / "f.map"
    src.write_text(COUNTER)
    dst.write_text(SUSPENDED)
    mp.write_text(GOOD_MAP)
    code, out, _ = run(capsys, "mccord", str(src), str(dst), str(mp))
    assert code == 0
    assert "continuous: yes" in out

    # c < b in the source but a and b are incomparable in the target
    mp.write_text(GOOD_MAP.replace("c -> c", "c -> a"))
    code, out, _ = run(capsys, "mccord", str(src), str(dst), str(mp))
    assert code == 1
    assert "not continuous" in out


def test_sphere_and_verify_commands(capsys):
    code, out, _ = run(capsys, "sphere", "1")
    assert code == 0
    assert out.count("<") == 4

    code, out, _ = run(capsys, "verify", "wedges", "--max-n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["confirmed"] is True
    assert [r["models"] for r in data["rows"]] == [1, 2, 3]
    assert data["rows"][2]["size"] == 6 and data["rows"][2]["edges"] == 8

    code, out, _ = run(capsys, "verify", "spheres", "--max-h", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["confirmed"] is True and data["classes_scanned"] == 24


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 16
    code, out, _ = run(capsys, "enumerate", "4", "--filter", "minimal", "--json")
    assert json.loads(out)["count"] == 2  # the 4-antichain and the circle model


def test_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("a < b\nb < a\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2 and "cycle" in err

    code, _, err = run(capsys, "info", str(tmp_path / "missing.poset"))
    assert code == 2

    malformed = tmp_path / "m.poset"
    malformed.write_text("a <\n")
    code, _, err = run(capsys, "info", str(malformed))
    assert code == 2 and "line 1" in err

    # disconnected input to pi1 is an input error
    two = tmp_path / "two.poset"
    two.write_text("a\nb\n")
    code, _, err = run(capsys, "pi1", str(two))
    assert code == 2


def test_workers_out_of_range_is_an_input_error(capsys):
    # refused before any work, so no pool is forked
    for workers in (0, os.cpu_count() + 1):
        code, out, err = run(capsys, "enumerate", "3", "--workers", str(workers), "--json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--workers" in err


def test_empty_wedge_scan_is_an_input_error(capsys):
    for bad in ("0", "-3"):
        code, out, err = run(capsys, "verify", "wedges", "--max-n", bad, "--json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--max-n" in err


def test_wedge_scan_past_the_enumeration_cap(capsys):
    code, out, _ = run(capsys, "verify", "wedges", "--max-n", "16", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["confirmed"] is True
    assert [r["models"] for r in data["rows"]] == [
        1, 2, 3, 1, 2, 2, 5, 3, 1, 8, 2, 2, 12, 5, 3, 1,
    ]
    assert data["rows"] == [r._asdict() for r in verify_wedge_theorem(16).rows]
    assert wedge_uniqueness_scan(16) == [(r["n"], r["models"]) for r in data["rows"]]


def test_one_certificate_per_wedge_model(capsys, monkeypatch):
    calls = []
    real = models.check_wedge_model
    monkeypatch.setattr(
        models, "check_wedge_model", lambda p, n: calls.append(n) or real(p, n)
    )
    code, out, _ = run(capsys, "verify", "wedges", "--max-n", "9")
    assert code == 0
    assert len(calls) == 20  # the model counts 1, 2, 3, 1, 2, 2, 5, 3, 1


def test_wedge_violator_is_printed(capsys, monkeypatch):
    real = models.enumerate_wedge_minimal_models
    # the circle model beside an isolated point: disconnected, 4 covers
    extra = FinitePoset.from_cover_pairs(5, [(0, 2), (0, 3), (1, 2), (1, 3)])
    monkeypatch.setattr(
        models, "enumerate_wedge_minimal_models", lambda n: real(n) + [extra] * (n == 2)
    )
    code, out, _ = run(capsys, "verify", "wedges", "--max-n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[2].startswith(" 2") and lines[2].endswith("FAILED")
    assert lines[4] == "violator:" and lines[-1] == "VIOLATED"


def test_sphere_height_without_a_class_is_printed(capsys, monkeypatch):
    real = finito.cli.verify_sphere_theorem

    def without_height_2(h):
        report = real(h)
        del report.equality_classes[2]
        return report

    monkeypatch.setattr(finito.cli, "verify_sphere_theorem", without_height_2)
    code, out, _ = run(capsys, "verify", "spheres", "--max-h", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[3].startswith("height 2: 0 class(es)") and lines[3].endswith("FAILED")
    assert lines[4].startswith("height 3:") and lines[4].endswith("ok")
    assert lines[-1] == "VIOLATED"
    code, out, _ = run(capsys, "verify", "spheres", "--max-h", "3", "--json")
    data = json.loads(out)
    assert code == 1 and data["confirmed"] is False
    assert data["equality_classes"] == {"1": 1, "2": 0, "3": 1}


def test_sphere_scan_that_loses_a_class_is_violated(capsys, monkeypatch):
    # drops the 4-point chain, a leaf that is neither minimal nor a sphere
    children = models._children
    monkeypatch.setattr(models, "_children",
                        lambda parent: [c for c in children(parent) if c.height < 4])
    code, out, _ = run(capsys, "verify", "spheres", "--max-h", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "scanned 23 classes with at most 4 points"
    assert lines[1].endswith("ok") and "violator:" not in lines
    # each height has its one sphere class, but no verdict stands on a short count
    assert lines[2].startswith("height 1: 1 class(es)") and lines[2].endswith("FAILED")
    assert lines[3].startswith("height 2: 1 class(es)") and lines[3].endswith("FAILED")
    assert lines[4] == "classes per size 1..4: 1, 2, 5, 15, expected OEIS A000112: FAILED"
    assert lines[5] == "VIOLATED"
    code, out, _ = run(capsys, "verify", "spheres", "--max-h", "2", "--json")
    data = json.loads(out)
    assert code == 1 and data["confirmed"] is False
    assert data["classes_per_size"] == {"1": 1, "2": 2, "3": 5, "4": 15}
    assert data["equality_classes"] == {"1": 1, "2": 1}


def test_enumeration_limit_is_named(capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("the refusal comes before any work")

    monkeypatch.setattr(finito.models, "enumerate_wedge_minimal_models", reached)
    points, circles = "limit of 10 points", "limit of 20 circles"
    for argv, asked, limit in (
        (["enumerate", "11"], "k=11", points),
        (["verify", "spheres", "--max-h", "6"], "max height 6 needs 12 points", points),
        (["verify", "wedges", "--max-n", "21"], "max n 21", circles),
        (["verify", "wedges", "--max-n", "50"], "max n 50", circles),
    ):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and asked in err and limit in err


def test_sphere_face_list_limit_is_named(capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("the refusal comes before any work")

    monkeypatch.setattr(finito.cli, "sphere_model", reached)
    monkeypatch.setattr(finito.fileio, "_chain_levels", reached)
    for n in ("11", "200"):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "sphere", n, "--format", "faces", *json_flag)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and f"N={n}" in err and "limit of N = 10" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "sphere", "200")
    assert code == 0 and out.count("<") == 4 * 200
    code, out, _ = run(capsys, "sphere", "2", "--format", "faces")
    assert code == 0 and out.count("\n") == 3 ** 3 - 1
    # the limit is the largest sphere whose chains ``_chain_levels`` lists
    chains = [_chain_totals(finito.sphere_model(n))[0] for n in (10, 11)]
    assert chains[0] <= MAX_CHAINS < chains[1]


def test_sphere_json_with_dot_or_faces_is_refused(capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("the refusal comes before any work")

    monkeypatch.setattr(finito.cli, "sphere_model", reached)
    for n in ("1", "3"):
        for fmt in ("dot", "faces"):
            code, out, err = run(capsys, "sphere", n, "--format", fmt, "--json")
            assert code == 2 and out == ""
            assert err == f"error: --json cannot be combined with --format {fmt}\n"
    monkeypatch.undo()
    code, as_flag, _ = run(capsys, "sphere", "2", "--json")
    assert code == 0 and json.loads(as_flag)["labels"] == [str(x) for x in range(6)]
    for argv in (("--format", "json"), ("--format", "json", "--json"), ("--format", "poset", "--json")):
        code, out, _ = run(capsys, "sphere", "2", *argv)
        assert code == 0 and out == as_flag


def test_sphere_scan_below_height_two_names_the_height(capsys):
    # each refused value is named, as are a negative sphere and an empty enumeration
    cases = [(("verify", "spheres", "--max-h", h), f"max height must be at least 2, got {h}")
             for h in ("0", "1")]
    cases += [(("sphere", "-1"), "dimension must be non-negative, got -1"),
              (("enumerate", "0"), "k must be positive, got 0")]
    for argv, message in cases:
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, *argv, *json_flag)
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"


def test_unknown_pi1_base_has_no_line_number(capsys, counter_file):
    code, _, err = run(capsys, "pi1", counter_file, "--base", "z")
    assert code == 2
    assert err == "error: basepoint 'z' is not a point\n"


def test_bad_height_filter_is_named(capsys):
    for spec in ("height=x", "height=", "height=1_0", "height= 2", "height=\u0663"):
        code, out, err = run(capsys, "enumerate", "3", "--filter", spec)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--filter height=H" in err
        assert "whole number" in err and "invalid literal" not in err
    for spec in ("height=0", "height=-1"):  # no space has a height below 1
        code, out, err = run(capsys, "enumerate", "3", "--filter", spec)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--filter height=H" in err and "at least 1" in err
    # leading zeros name the same height
    code, out, _ = run(capsys, "enumerate", "3", "--filter", "height=03")
    assert code == 0 and out == "k=3 [height=03]: 1 classes\n"


def by_filter_json(k, total, connected, minimal, heights):
    by_filter = {"connected": connected, "minimal": minimal}
    by_filter.update((f"height={h}", c) for h, c in enumerate(heights, 1))
    return json.dumps({"k": k, "total": total, "by_filter": by_filter}, indent=2) + "\n"


def test_enumerate_eight_golden(capsys):
    assert run(capsys, "enumerate", "8", "--json") == (0, by_filter_json(
        8, 16999, 14512, 160, (1, 556, 6372, 7305, 2380, 356, 28, 1)), "")


@pytest.mark.slow
def test_enumerate_nine_golden_with_two_workers(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    assert run(capsys, "enumerate", "9", "--json", "--workers", "2") == (0, by_filter_json(
        9, 183231, 163341, 954, (1, 2222, 52336, 86683, 35070, 6259, 623, 36, 1)), "")


def test_count_labels_no_more_than_the_walk_and_decodes_nothing(capsys, monkeypatch):
    labelled, decoded = [], []
    encoding, decode = poset._canonical_encoding, FinitePoset._from_code
    monkeypatch.setattr(poset, "_canonical_encoding", lambda p: labelled.append(p) or encoding(p))
    for _ in models._walk(8):
        pass
    walk_labels = len(labelled)
    labelled.clear()
    monkeypatch.setattr(FinitePoset, "_from_code",
                        classmethod(lambda cls, code: decoded.append(code) or decode(code)))
    code, out, _ = run(capsys, "enumerate", "8", "--json")
    assert code == 0 and json.loads(out)["total"] == 16999
    assert len(labelled) == walk_labels and decoded == []


def test_filter_count_equals_the_emitted_list(capsys):
    for k in range(1, 7):
        for spec in ("connected", "minimal", *(f"height={h}" for h in range(1, k + 2))):
            _, out, _ = run(capsys, "enumerate", str(k), "--filter", spec, "--json")
            count = json.loads(out)["count"]
            _, out, _ = run(capsys, "enumerate", str(k), "--filter", spec, "--emit", "--json")
            listed = json.loads(out)
            assert listed["count"] == len(listed["classes"]) == count


def test_emit_lists_the_enumerated_classes_and_decodes_only_those(capsys, monkeypatch):
    k = 6
    classes = list(enumerate_posets(k))
    _, counts, _ = run(capsys, "enumerate", str(k), "--json")
    _, heading, _ = run(capsys, "enumerate", str(k))
    decoded, decode = [], FinitePoset._from_code
    monkeypatch.setattr(FinitePoset, "_from_code",
                        classmethod(lambda cls, code: decoded.append(code) or decode(code)))
    code, out, _ = run(capsys, "enumerate", str(k), "--emit", "--json")
    assert code == 0 and json.loads(out) == {**json.loads(counts),
                                             "classes": [emit(p) for p in classes]}
    assert run(capsys, "enumerate", str(k), "--emit") == (
        0, heading + "".join("\n" + emit(p) for p in classes), "")
    minimal = [p for p in classes if not beat_points(p)]
    decoded.clear()
    code, out, _ = run(capsys, "enumerate", str(k), "--emit", "--filter", "minimal", "--json")
    assert json.loads(out)["classes"] == [emit(p) for p in minimal]
    assert decoded == [p.canonical_form() for p in minimal]


def test_emit_labels_only_the_classes_it_prints(capsys, monkeypatch):
    calls, form = [], FinitePoset.canonical_form
    monkeypatch.setattr(FinitePoset, "canonical_form", lambda p: calls.append(p) or form(p))
    for argv, printed in ((("--emit", "--filter", "minimal"), 36), (("--emit",), 2045), ((), 0)):
        calls.clear()
        code, out, _ = run(capsys, "enumerate", "7", *argv, "--json")
        assert code == 0 and len(json.loads(out).get("classes", ())) == printed
        assert len(calls) == printed


def test_emit_with_two_workers_prints_the_same_bytes(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    serial, parallel = (
        run(capsys, "enumerate", "7", "--emit", "--filter", "connected", "--json",
            "--workers", workers)
        for workers in ("1", "2")
    )
    assert json.loads(serial[1])["count"] == 1650
    assert serial == parallel


def test_info_on_long_chain_and_cone(capsys, tmp_path):
    # the chain has 2^40 - 1 chains; b0 and b1 come from its one-point core
    n = 40
    chain = [(x, x + 1) for x in range(n - 1)]
    fence = [(x, x + 1) if x % 2 == 0 else (x + 1, x) for x in range(n - 2)]
    cone = fence + [(x, n - 1) for x in range(n - 1) if x % 2 == 1 or x == n - 2]
    for name, pairs in (("chain", chain), ("cone", cone)):
        path = tmp_path / f"{name}.poset"
        path.write_text("".join(f"p{x} < p{y}\n" for x, y in pairs))
        code, out, _ = run(capsys, "info", "--json", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["points"], data["b0"], data["b1"]) == (n, 1, 0)


def test_homology_of_long_chain(capsys, tmp_path):
    # 2^40 - 1 chains; the complex of its one-point core stands in for them
    n = 40
    path = tmp_path / "chain.poset"
    path.write_text("".join(f"p{x} < p{x + 1}\n" for x in range(n - 1)))
    code, out, _ = run(capsys, "homology", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {"betti": [1] + [0] * (n - 1), "torsion": [[]] * n}


def test_homology_beyond_the_chain_limit_is_one_line(cli_env, tmp_path):
    # 7 layers of 7 points, each above the whole layer below: its own core,
    # with 8^7 - 1 chains, counted and refused before any is listed
    path = tmp_path / "layers.poset"
    path.write_text("".join(
        f"p{l}_{i} < p{l + 1}_{j}\n" for l in range(6) for i in range(7) for j in range(7)
    ))
    for command in ("info", "homology"):
        for json_flag in ((), ("--json",)):
            proc = subprocess.run(
                [sys.executable, "-m", "finito", command, str(path), *json_flag],
                capture_output=True, text=True, env=cli_env,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                "error: the order complex has 2,097,151 chains, beyond the limit of 250,000\n"
            )


@pytest.mark.slow
def test_homology_just_under_the_chain_limit(capsys, tmp_path):
    # 5 layers of 11 points, each above the whole layer below: its own core,
    # with 12^5 - 1 = 248,831 chains, and a wedge of 10^5 3-spheres
    path = tmp_path / "layers.poset"
    path.write_text("".join(
        f"p{l}_{i} < p{l + 1}_{j}\n" for l in range(4) for i in range(11) for j in range(11)
    ))
    code, out, _ = run(capsys, "homology", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {"betti": [1, 0, 0, 0, 100000], "torsion": [[]] * 5}


def test_installed_pipeline(cli_env):
    """Runs the console-script entry point ``finito.cli:main`` through ``-m``."""
    finito = [sys.executable, "-m", "finito"]
    first = subprocess.run(
        finito + ["sphere", "1"], capture_output=True, text=True, env=cli_env
    )
    assert first.returncode == 0, first.stderr
    proc = subprocess.run(
        finito + ["info", "-"],
        input=first.stdout,
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "points      4" in proc.stdout
    assert "euler       0" in proc.stdout


def test_closed_stdout_exits_quietly(cli_env):
    # about 120 kB of output: more than the pipe and both buffers hold, so
    # the writer is still printing when the reader goes
    with subprocess.Popen(
        [sys.executable, "-m", "finito", "enumerate", "7", "--emit", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env,
        bufsize=0,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("a < b\n"))
    code, out, _ = run(capsys, "info", "-")
    assert code == 0
    assert "points      2" in out


def test_empty_input_has_no_line_number(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("# nothing\n"))
    code, out, err = run(capsys, "info", "-")
    assert code == 2 and out == ""
    assert err == "error: no points declared\n"


def test_duplicate_cover_is_one_warning_line(cli_env):
    once, twice = (
        subprocess.run([sys.executable, "-m", "finito", "info"], input=text,
                       capture_output=True, text=True, env=cli_env)
        for text in ("a < b\n", "a < b\na < b\n")
    )
    assert twice.returncode == once.returncode == 0
    assert twice.stdout == once.stdout and "points      2" in once.stdout
    assert twice.stderr == "warning: line 2: duplicate cover a < b\n"


DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
DEMO_OUTPUT = Path(__file__).parent / "demo_output"


def test_demos_are_found():
    assert DEMOS
    assert sorted(f.stem for f in DEMO_OUTPUT.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script, cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=cli_env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    # every demo is deterministic: its stdout is pinned byte for byte
    assert proc.stdout == (DEMO_OUTPUT / f"{script.stem}.txt").read_text(encoding="utf-8")
