import pytest

from finito import (
    CycleError,
    DuplicateCoverError,
    FinitePoset,
    ParseError,
    emit,
    parse_poset,
    sphere_model,
)
from finito.fileio import FORMATS, parse_map


def test_parse_singleton():
    p, base = parse_poset("x\n")
    assert p.labels == ("x",) and p.covers == () and base is None
    assert p.n == 1


def test_parse_paper_example():
    p, _ = parse_poset("d < b\nb < a\nc < a\n")
    assert p.labels == ("d", "b", "a", "c")
    assert p.n == 4 and p.height == 3
    assert p.min_open(p.labels.index("b")) == {
        p.labels.index("b"),
        p.labels.index("d"),
    }


def test_parse_comments_isolated_and_base():
    p, base = parse_poset("# two pieces\nx < y\nz  # isolated\n@base z\n")
    assert p.labels == ("x", "y", "z")
    assert base == 2
    assert len(p.connected_components()) == 2


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_poset("a <\n")
    with pytest.raises(ParseError):
        parse_poset("a < b < c\n")
    with pytest.raises(ParseError):
        parse_poset("@root x\n")
    with pytest.raises(ParseError):
        parse_poset("a.b\n")
    with pytest.raises(ParseError):
        parse_poset("a < a\n")
    with pytest.raises(ParseError):
        parse_poset("")
    with pytest.raises(ParseError, match="never declared"):
        parse_poset("a < b\n@base q\n")
    with pytest.raises(ParseError, match="line 3: a second @base"):
        parse_poset("a < b\n@base a\n@base b\n")
    with pytest.raises(CycleError):
        parse_poset("a < b\nb < c\nc < a\n")


def test_parse_duplicate_cover_warns():
    with pytest.warns(DuplicateCoverError):
        p, _ = parse_poset("a < b\na < b\n")
    assert p.covers == ((0, 1),)


def test_emit_singleton():
    p = FinitePoset.antichain(1)
    assert emit(p) == "0\n"
    labeled = FinitePoset((1,), labels=("x",))
    assert emit(labeled) == "x\n"


def test_emit_round_trip_enumerated(classes_upto):
    for p in classes_upto(6):
        names = tuple(f"p{i}" for i in range(p.n))
        labeled = FinitePoset(p.up, names)
        q, _ = parse_poset(emit(labeled))
        assert sorted(q.labels) == sorted(names)
        assert q.is_homeomorphic(p)
        at = {name: i for i, name in enumerate(q.labels)}
        for x, a in enumerate(names):
            for y, b in enumerate(names):
                assert q.leq(at[a], at[b]) == p.leq(x, y)


def test_emit_base_round_trip():
    p = FinitePoset((1,), labels=("x",))
    _, base = parse_poset(emit(p, base=0))
    assert base == 0


def test_emit_refuses_a_base_that_is_not_a_point():
    chain = FinitePoset.chain(2)
    labelled = FinitePoset.from_cover_pairs(2, [(0, 1)], labels=["a", "b"])
    for p in (chain, labelled):
        for fmt in FORMATS:
            for base in (5, 2, -1):
                with pytest.raises(IndexError, match=f"^point {base} out of range for n=2$"):
                    emit(p, fmt, base=base)
        for base in (0, 1):
            assert parse_poset(emit(p, base=base))[1] == base


def test_emit_rejects_bad_labels():
    p = FinitePoset((1,), labels=("not ok",))
    with pytest.raises(ValueError):
        emit(p)
    # the whole label must match, a trailing newline included
    p = FinitePoset.from_cover_pairs(2, [(0, 1)], labels=["a\n", "b"])
    with pytest.raises(ValueError, match=r"label 'a\\n' cannot appear in a poset file"):
        emit(p)


def test_emit_dot_golden(ss0):
    dot = emit(ss0, "dot")
    assert dot == (
        "digraph poset {\n"
        "  rankdir=BT;\n"
        "  node [shape=plaintext];\n"
        '  { rank=same; "0"; "1"; }\n'
        '  { rank=same; "2"; "3"; }\n'
        '  "0" -> "2";\n'
        '  "0" -> "3";\n'
        '  "1" -> "2";\n'
        '  "1" -> "3";\n'
        "}\n"
    )


def test_emit_json_schema(ss0):
    import json

    doc = json.loads(emit(ss0, "json"))
    assert doc == {
        "labels": ["0", "1", "2", "3"],
        "covers": [["0", "2"], ["0", "3"], ["1", "2"], ["1", "3"]],
        "base": None,
    }


def test_emit_faces(ss0):
    assert emit(ss0, "faces") == "0\n1\n2\n3\n0 2\n0 3\n1 2\n1 3\n"


def test_emit_unknown_format(ss0):
    with pytest.raises(ValueError):
        emit(ss0, "yaml")


def test_emit_sphere_parses_back():
    p = sphere_model(2)
    q, _ = parse_poset(emit(p))
    assert q.is_homeomorphic(p)


def test_parse_map():
    src, _ = parse_poset("a < b\nc\n")
    dst, _ = parse_poset("x < y\n")
    mapping = parse_map("a -> x\nb -> y\nc -> x\n", src, dst)
    assert mapping == [0, 1, 0]
    with pytest.raises(ParseError, match="^unmapped source points: c$"):
        parse_map("a -> x\nb -> y\n", src, dst)
    with pytest.raises(ParseError):
        parse_map("a -> x\na -> y\nb -> y\nc -> x\n", src, dst)
    with pytest.raises(ParseError):
        parse_map("a -> q\nb -> y\nc -> x\n", src, dst)
    # posets built in code without labels name their points by index
    src = FinitePoset.from_cover_pairs(3, [(0, 1)])
    dst = FinitePoset.from_cover_pairs(2, [(0, 1)])
    assert parse_map("0 -> 0\n1 -> 1\n2 -> 0\n", src, dst) == [0, 1, 0]
    with pytest.raises(ParseError, match="^unmapped source points: 2$"):
        parse_map("0 -> 0\n1 -> 1\n", src, dst)
    with pytest.raises(ParseError, match="'a' is not a point of the source"):
        parse_map("a -> 0\n", src, dst)
