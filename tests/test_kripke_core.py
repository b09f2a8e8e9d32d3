import random

import pytest

from kripkit import (KripkitError, Model, PointedModel, distributed_relation,
                     image, parse_model, relation_properties, serialize_model,
                     validate_model)
from kripkit.kripke_core import (distributed_rows, group_mask, pairs_to_rows,
                                 rows_to_pairs)

import gen
import oracle_eval as O


def small():
    return Model.build(
        ("w0", "w1"), ("a", "b"), ("p",),
        {"a": {("w0", "w0"), ("w0", "w1"), ("w1", "w1")},
         "b": {("w0", "w0"), ("w1", "w1"), ("w1", "w0")}},
        {"p": {"w0"}})


def test_build_and_accessors():
    m = small()
    assert m.n == 2
    assert m.worlds == ("w0", "w1")
    assert m.world_index("w1") == 1
    assert m.world_index(0) == 0
    assert m.agent_index("b") == 1
    assert m.atom_index("p") == 0
    assert m.relation("a") == frozenset({(0, 0), (0, 1), (1, 1)})
    assert m.valuation == {"p": frozenset({"w0"})}
    assert m.atom_mask("p") == 0b01


def test_lookup_errors():
    m = small()
    with pytest.raises(KripkitError) as e:
        m.world_index("w9")
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError) as e:
        m.world_index(5)
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError) as e:
        m.agent_index("z")
    assert e.value.code == "unknown-agent"
    with pytest.raises(KripkitError) as e:
        m.atom_index("z")
    assert e.value.code == "unknown-atom"


def test_build_rejects_bad_references():
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p",),
                    {"a": {("w0", "w9")}}, {"p": set()})
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p",),
                    {}, {"p": set()})
    assert e.value.code == "missing-agent-relation"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p",),
                    {"a": set(), "z": set()}, {"p": set()})
    assert e.value.code == "unknown-agent"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p",),
                    {"a": set()}, {"p": set(), "z": set()})
    assert e.value.code == "unknown-atom"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p",),
                    {"a": set()}, {"p": {"w9"}})
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError, match="empty world set") as e:
        Model.build((), ("a",), ("p",), {"a": set()}, {"p": set()})
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError, match="duplicate world names") as e:
        Model.build(("w0", "w0"), ("a",), ("p",), {"a": set()}, {"p": set()})
    assert e.value.code == "dangling-world"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a", "a"), ("p",), {"a": set()}, {"p": set()})
    assert e.value.code == "duplicate-roster-entry"
    with pytest.raises(KripkitError) as e:
        Model.build(("w0",), ("a",), ("p", "p"), {"a": set()}, {"p": set()})
    assert e.value.code == "duplicate-roster-entry"


def test_pointed_model_checks_world():
    m = small()
    assert PointedModel(m, 1).world == 1
    with pytest.raises(KripkitError):
        PointedModel(m, 7)


def test_pairs_rows_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        pairs = frozenset((rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(0, n * n)))
        assert rows_to_pairs(pairs_to_rows(pairs, n)) == pairs


def test_distributed_relation_is_intersection():
    rng = random.Random(6)
    for _ in range(60):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        for G in ({"a"}, {"b", "c"}, {"a", "b", "c"}):
            got = {(m.worlds[u], m.worlds[v])
                   for (u, v) in distributed_relation(m, G)}
            assert got == O.d_rel(M, G)


def test_distributed_empty_group_rejected():
    m = small()
    with pytest.raises(KripkitError) as e:
        distributed_relation(m, frozenset())
    assert e.value.code == "empty-group"
    with pytest.raises(KripkitError):
        distributed_rows(m, 0)


def test_group_mask():
    m = small()
    assert group_mask(m, {"a"}) == 0b01
    assert group_mask(m, {"a", "b"}) == 0b11
    with pytest.raises(KripkitError):
        group_mask(m, {"z"})


def test_image():
    m = small()
    assert image(m.relation("a"), 0) == {0, 1}
    assert image(m.relation("b"), 0) == {0}


def test_relation_properties_against_oracle():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 5)
        worlds = tuple(f"w{i}" for i in range(n))
        rel = frozenset((rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randint(0, n * n)))
        named = {(worlds[u], worlds[v]) for (u, v) in rel}
        assert relation_properties(rel, n) == O.props(named, worlds)


def test_pairs_outside_the_worlds_rejected():
    for pair in ((0, 5), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(KripkitError) as e:
            relation_properties(frozenset({pair}), 2)
        assert e.value.code == "dangling-world"


def test_relation_properties_equivalence():
    rng = random.Random(8)
    for _ in range(40):
        m = gen.random_equiv_model(rng)
        for ag in m.agents:
            p = relation_properties(m.relation(ag), m.n)
            assert all(p.values())


def test_serialize_parse_round_trip():
    rng = random.Random(9)
    for _ in range(60):
        m = gen.random_model(rng)
        point = rng.randrange(m.n) if rng.random() < 0.5 else None
        m2, p2 = parse_model(serialize_model(m, point))
        assert m2 == m and p2 == point


def test_parse_model_format():
    text = """
# comment
worlds: w0 w1
agents: a
atoms: p
rel a: w0-w1 w1-w1
val p: w1
point: w0
"""
    m, point = parse_model(text)
    assert m.worlds == ("w0", "w1")
    assert point == 0
    assert m.relation("a") == frozenset({(0, 1), (1, 1)})
    assert m.valuation["p"] == frozenset({"w1"})


@pytest.mark.parametrize("text, code", [
    ("worlds: w0\nagents: a\natoms: p\nrel a: w0-w9\nval p:", "dangling-world"),
    ("worlds: w0\nagents: a\natoms: p\nval p:", "missing-agent-relation"),
    ("worlds: w0\nagents: a\natoms: p\nrel z: \nval p:", "unknown-agent"),
    ("worlds: w0\nagents: a\natoms: p\nrel a: \nval z:", "unknown-atom"),
    ("worlds: w0\nagents: a\natoms: p\nrel a: \nval p:\nbogus: x",
     "syntax-error"),
    ("worlds: w0\nagents: a\natoms: p\nrel a: w0w0\nval p:", "syntax-error"),
    ("worlds: w0 w1\nagents: a a\natoms: p\nrel a: w0-w1\nval p: w1\n",
     "duplicate-roster-entry"),
    ("worlds: w0 w1\nagents: a\natoms: p p\nrel a: w0-w1\nval p: w1\n",
     "duplicate-roster-entry"),
    ("worlds w0\nagents: a\natoms: p\nrel a: \nval p:", "syntax-error"),
    ("worlds: w0 w1\nagents: a\natoms: p\nrel a: \nval p:\npoint: w0 w1",
     "syntax-error"),
    ("worlds: w0\nagents: a\nrel a: \n", "syntax-error"),
])
def test_parse_model_errors(text, code):
    with pytest.raises(KripkitError) as e:
        parse_model(text)
    assert e.value.code == code


@pytest.mark.parametrize("rows, vals, code, message", [
    ((0,), (0,), "missing-agent-relation", "1 rows for 2 agents"),
    ((0b100, 0), (0,), "dangling-world", "row 0 points outside W"),
    ((0, 0), (), "unknown-atom", "valuation arity mismatch"),
    ((0, 0), (0b10,), "dangling-world", "valuation of p"),
])
def test_validate_model_rejects_broken_models(rows, vals, code, message):
    # one world, agents a and b, atom p: rows and valuations built by hand
    m = Model(("w0",), ("a", "b"), ("p",), rows, vals)
    with pytest.raises(KripkitError, match=message) as e:
        validate_model(m)
    assert e.value.code == code


def test_with_rows_counts_rows():
    with pytest.raises(KripkitError) as e:
        small().with_rows((0, 0, 0))
    assert e.value.code == "row-count-mismatch"


def test_relations_by_agent():
    m = small()
    assert m.relations == {"a": m.relation("a"), "b": m.relation("b")}
    assert m.relations["b"] == frozenset({(0, 0), (1, 1), (1, 0)})


def test_validate_model_passes_on_generated():
    rng = random.Random(10)
    for _ in range(30):
        validate_model(gen.random_model(rng))
