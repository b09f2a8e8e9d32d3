import random

import pytest

from kripkit import (And, Atom, KripkitError, Model, apply_eee,
                     apply_reading_event, apply_see, apply_sse,
                     distributed_relation, full_ignorance_relation,
                     knowing_only_relation, model_m1, relation_properties,
                     truth_set)

import gen
import oracle_eval as O


AG3 = frozenset("abc")


def named_rels(m):
    return {a: {(m.worlds[u], m.worlds[v]) for (u, v) in m.relation(a)}
            for a in m.agents}


def test_transforms_match_oracle():
    rng = random.Random(31)
    # alphas come from a stream of their own, so the models do not depend
    # on them
    arng = random.Random(39)
    for _ in range(200):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        chi = gen.random_formula(rng, 2, dynamic=False)
        s = frozenset(rng.sample(m.agents, rng.randint(0, len(m.agents))))
        alpha = {i: frozenset(arng.sample(m.agents,
                                          arng.randint(0, len(m.agents))))
                 | {i} for i in m.agents}
        assert named_rels(apply_eee(m)) == O.t_eee(M)["R"]
        assert named_rels(apply_see(m, s)) == O.t_see(M, s)["R"]
        assert named_rels(apply_sse(m, s, chi)) == O.t_sse(M, s, chi)["R"]
        assert named_rels(apply_reading_event(m, alpha)) == \
            O.t_read(M, alpha)["R"]


def test_transforms_touch_only_relations():
    rng = random.Random(32)
    for _ in range(50):
        m = gen.random_model(rng)
        for out in (apply_eee(m), apply_see(m, frozenset("ab")),
                    apply_sse(m, frozenset("a"), Atom("p"))):
            assert out.worlds == m.worlds
            assert out.agents == m.agents
            assert out.atoms == m.atoms
            assert out.vals == m.vals


def test_ignorance_relations_match_oracle():
    rng = random.Random(33)
    for _ in range(100):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        chi = gen.random_formula(rng, 2, dynamic=False)
        fi = {(m.worlds[u], m.worlds[v])
              for (u, v) in full_ignorance_relation(m, chi)}
        ko = {(m.worlds[u], m.worlds[v])
              for (u, v) in knowing_only_relation(m, chi)}
        assert fi == O.full_ignorance(M, chi)
        assert ko == O.knowing_only(M, chi)
        # the two relations partition W x W
        assert not (fi & ko)
        assert len(fi) + len(ko) == m.n * m.n


def test_see_identities():
    rng = random.Random(34)
    for _ in range(80):
        m = gen.random_model(rng)
        assert apply_see(m, frozenset(m.agents)) == apply_eee(m)
        assert apply_see(m, frozenset()) == m


def test_sse_identities():
    rng = random.Random(35)
    p = Atom("p")
    from kripkit import Not
    for _ in range(80):
        m = gen.random_model(rng)
        s = frozenset(rng.sample(m.agents, rng.randint(0, len(m.agents))))
        assert apply_sse(m, s, p) == apply_sse(m, s, Not(p))
        # a topic nobody can distinguish moves nothing
        assert apply_sse(m, s, And(p, Not(p))) == m


def test_sse_empty_senders_is_identity():
    rng = random.Random(36)
    for _ in range(40):
        m = gen.random_model(rng)
        assert apply_sse(m, frozenset(), Atom("p")) == m


def test_eee_without_agents_keeps_the_model():
    m = Model.build(("w0", "w1"), (), ("p",), {}, {"p": {"w1"}})
    assert apply_eee(m) == m


def test_reading_events():
    rng = random.Random(37)
    m1 = model_m1()
    # alpha = everyone reads everyone: broadcast-everything
    assert apply_reading_event(
        m1, {a: ("a", "b", "c") for a in "abc"}) == apply_eee(m1)
    # alpha(i) = S + {i}: sender-group broadcast
    for _ in range(40):
        m = gen.random_model(rng)
        s = frozenset(rng.sample(m.agents, rng.randint(0, len(m.agents))))
        alpha = {i: s | {i} for i in m.agents}
        assert apply_reading_event(m, alpha) == apply_see(m, s)
    # missing agents default to reading only themselves
    assert apply_reading_event(m1, {}) == m1
    # pooled subgroup
    pooled = apply_reading_event(m1, {"a": ("a", "b"), "b": ("a", "b")})
    dab = distributed_relation(m1, frozenset("ab"))
    assert pooled.relation("a") == dab
    assert pooled.relation("b") == dab
    assert pooled.relation("c") == m1.relation("c")


def test_reading_event_must_include_self():
    m = model_m1()
    with pytest.raises(KripkitError) as e:
        apply_reading_event(m, {"a": ("b",)})
    assert e.value.code == "alpha-not-reflexive"
    with pytest.raises(KripkitError) as e:
        apply_reading_event(m, {"z": ("z",)})
    assert e.value.code == "unknown-agent"


def test_preservation_on_equivalence_models():
    rng = random.Random(38)
    for _ in range(120):
        m = gen.random_equiv_model(rng)
        chi = gen.random_formula(rng, 2, dynamic=False)
        s = frozenset(rng.sample(m.agents, rng.randint(0, len(m.agents))))
        for out in (apply_eee(m), apply_see(m, s)):
            for ag in m.agents:
                assert all(relation_properties(out.relation(ag),
                                               out.n).values())
        out = apply_sse(m, s, chi)
        for ag in m.agents:
            props = relation_properties(out.relation(ag), out.n)
            assert props["reflexive"] and props["symmetric"]


def test_sse_transitivity_failure_witness():
    # the exact witness: senders {a,b}, topic p & r, agent a
    m = model_m1()
    out = apply_sse(m, frozenset("ab"), And(Atom("p"), Atom("r")))
    expected = {(w, w) for w in range(4)} | {(0, 1), (1, 0), (0, 2), (2, 0)}
    assert out.relation("a") == frozenset(expected)
    props = relation_properties(out.relation("a"), 4)
    assert props["reflexive"] and props["symmetric"]
    assert not props["transitive"]
    assert not props["euclidean"]


def test_sse_dual_route_guard_is_live(monkeypatch):
    # both computations really run and really get compared: sabotage one
    # route and the guard must trip
    import kripkit.transforms as T
    # w0-w1 agree on the topic and only the knowing-only side keeps the edge
    m = Model.build(("w0", "w1"), ("a", "b"), ("p",),
                    {"a": {("w0", "w1")}, "b": set()}, {"p": {"w0", "w1"}})
    smask = 0b10  # senders {b}
    assert T.sse_rows(m, smask, 0b11)[0] == 0b10
    monkeypatch.setattr(T, "knowing_only_rows",
                        lambda n, chi_mask: tuple([0] * n))
    with pytest.raises(KripkitError) as e:
        T.sse_rows(m, smask, 0b11)
    assert e.value.code == "definition-mismatch"
