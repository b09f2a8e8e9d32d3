import random

import pytest

from kripkit import (And, Atom, Bot, D, Dhat, Eee, Iff, Implies, K,
                     KripkitError, Model, Not, Or, See, Sse, Top, parse,
                     satisfies, truth_mask, truth_set)

import gen
import oracle_eval as O


def test_random_agreement_with_oracle():
    rng = random.Random(21)
    for _ in range(250):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        f = gen.random_formula(rng, rng.randint(0, 4))
        got = truth_set(m, f)
        want = O.truth_set(M, f)
        assert got == want, (m, f)


def test_shared_subformula_objects_under_different_updates():
    # one subformula object evaluated on several transformed models; its
    # truth on one model must not be reused on another
    rng = random.Random(22)
    S, T = frozenset("a"), frozenset("bc")
    for _ in range(150):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        x = gen.random_formula(rng, rng.randint(1, 3))
        y = gen.random_formula(rng, rng.randint(0, 2))
        for f in (And(Eee(x), x), Sse(S, x, x), And(See(S, x), See(T, x)),
                  And(Sse(S, y, x), Sse(S, Not(y), x)),
                  Sse(T, x, And(x, Eee(x))), Eee(And(x, See(S, x))),
                  Dhat(T, x, And(x, Sse(S, x, x)))):
            assert truth_set(m, f) == O.truth_set(M, f), (m, f)


def test_truth_set_names_and_mask_bits():
    m = Model.build(("w0", "w1"), ("a",), ("p",),
                    {"a": {("w0", "w1"), ("w1", "w1")}}, {"p": {"w1"}})
    assert truth_set(m, Atom("p")) == frozenset({"w1"})
    assert truth_mask(m, Atom("p")) == 0b10
    assert truth_set(m, K("a", Atom("p"))) == frozenset({"w0", "w1"})
    assert m.valuation["p"] == truth_set(m, Atom("p"))


def test_satisfies_accepts_names_and_indices():
    m = Model.build(("w0", "w1"), ("a",), ("p",),
                    {"a": {("w0", "w1")}}, {"p": {"w1"}})
    assert satisfies(m, "w1", Atom("p"))
    assert satisfies(m, 1, Atom("p"))
    assert not satisfies(m, "w0", Atom("p"))


def test_constants():
    m = Model.build(("w0",), ("a",), ("p",), {"a": set()}, {"p": set()})
    assert satisfies(m, 0, Top())
    assert not satisfies(m, 0, Bot())
    # an empty relation makes every K vacuous
    assert satisfies(m, 0, K("a", Bot()))


def test_distributed_knowledge_pools_information():
    # two agents each rule out one world; together they pin the real one
    m = Model.build(
        ("w0", "w1", "w2"), ("a", "b"), ("p",),
        {"a": {("w0", "w0"), ("w0", "w1"), ("w1", "w1"), ("w2", "w2")},
         "b": {("w0", "w0"), ("w0", "w2"), ("w1", "w1"), ("w2", "w2")}},
        {"p": {"w0"}})
    assert not satisfies(m, 0, K("a", Atom("p")))
    assert not satisfies(m, 0, K("b", Atom("p")))
    assert satisfies(m, 0, D(frozenset("ab"), Atom("p")))


def test_dhat_restricts_to_topic_class():
    rng = random.Random(22)
    for _ in range(120):
        m = gen.random_model(rng)
        M = O.to_dict(m)
        chi = gen.random_formula(rng, 2, dynamic=False)
        body = gen.random_formula(rng, 2, dynamic=False)
        g = frozenset(rng.sample(m.agents, rng.randint(1, len(m.agents))))
        f = Dhat(g, chi, body)
        assert truth_set(m, f) == O.truth_set(M, f)


def test_dynamic_operators_change_truth():
    # sanity: the bundled one-secret-each model, directly
    from kripkit import model_m1
    m = model_m1()
    f = K("a", Atom("q"))
    assert not satisfies(m, "w0", f)
    assert satisfies(m, "w0", Eee(f))
    assert satisfies(m, "w0", See(frozenset("ab"), K("a", Atom("q"))))
    assert not satisfies(m, "w0", See(frozenset(), f))


def test_roster_errors():
    m = Model.build(("w0",), ("a",), ("p",), {"a": set()}, {"p": set()})
    with pytest.raises(KripkitError) as e:
        satisfies(m, 0, Atom("z"))
    assert e.value.code == "unknown-atom"
    with pytest.raises(KripkitError) as e:
        satisfies(m, 0, K("z", Atom("p")))
    assert e.value.code == "unknown-agent"
    with pytest.raises(KripkitError) as e:
        satisfies(m, 0, See(frozenset("z"), Atom("p")))
    assert e.value.code == "unknown-agent"
    with pytest.raises(KripkitError) as e:
        satisfies(m, "w9", Atom("p"))
    assert e.value.code == "dangling-world"
    # names only the evaluator's own lookups reach
    z = Atom("z")
    for f in (Eee(z), Sse(frozenset("a"), z, Atom("p")),
              See(frozenset(), z)):
        with pytest.raises(KripkitError) as e:
            satisfies(m, 0, f)
        assert e.value.code == "unknown-atom", f
    for f in (Dhat(frozenset("z"), Atom("p"), Atom("p")),
              Sse(frozenset("z"), Atom("p"), Atom("p"))):
        with pytest.raises(KripkitError) as e:
            satisfies(m, 0, f)
        assert e.value.code == "unknown-agent", f
    # the first unknown name the evaluator looks up is the one reported:
    # K_z's agent before the atom y under it
    with pytest.raises(KripkitError) as e:
        satisfies(m, 0, K("z", Atom("y")))
    assert e.value.code == "unknown-agent"
    assert str(e.value) == "unknown-agent: z"


def test_parsed_and_constructed_agree():
    rng = random.Random(23)
    from kripkit import print_formula
    for _ in range(60):
        m = gen.random_model(rng)
        f = gen.random_formula(rng, 3)
        assert truth_set(m, f) == truth_set(m, parse(print_formula(f)))


def test_distributed_rows_stay_with_their_model():
    # the rows of a D group or a K agent are kept in one model's memo, so a
    # group read under an update and again outside it, in either order,
    # gets each model's rows
    rng = random.Random(24)
    x = parse("D{a,b} p")
    phis = [parse(text) for text in ("[see a] D{a,b} p & D{a,b} p",
                                     "[sse a | p] K_b q & K_b q",
                                     "[eee] D{a,b} p & D{a,b} p",
                                     # updates that change the rows read
                                     "[see a] D{b} p & D{b} p",
                                     "[eee] K_a p & K_a p",
                                     "[sse b | p] K_b q & K_b q",
                                     "[sse a | p] D{b} q & K_b q")]
    # one object under the update and outside it
    phis += [And(See(frozenset("a"), x), x), And(Eee(x), x)]
    # each side first, in a conjunction and in an equivalence: one side of
    # a conjunction may imply the other and so hide the other's error
    phis = [f(u, v) for phi in phis
            for u, v in ((phi.left, phi.right), (phi.right, phi.left))
            for f in (And, Iff)]
    for _ in range(300):
        m = gen.random_model(rng, 4, ("a", "b"), ("p", "q"))
        M = O.to_dict(m)
        for phi in phis:
            assert truth_set(m, phi) == O.truth_set(M, phi), (m, phi)


@pytest.mark.parametrize("text, agent", [
    ("K_c p & D{a,d} p", "c"),
    ("D{d} p & K_c p", "d"),
    ("D{d} z & K_c p", "d"),
    ("K_a p & D{a} (p & K_e p)", "e"),
    ("[see a] K_a p & K_c p", "c"),
])
def test_truth_mask_names_the_first_unknown_agent(text, agent):
    m = Model.build(("w0",), ("a", "b"), ("p",), {"a": set(), "b": set()},
                    {"p": set()})
    with pytest.raises(KripkitError) as e:
        truth_mask(m, parse(text))
    assert str(e.value) == f"unknown-agent: {agent}"


# a child that is not a formula, met after its parent has read the rows of
# its group or agent; test_formula covers a non-formula root
@pytest.mark.parametrize("phi", [
    And(Atom("p"), 3), D(frozenset("a"), 3), K("a", None), Eee(3)])
def test_truth_mask_refuses_a_non_formula(phi):
    m = Model.build(("w0",), ("a",), ("p",), {"a": set()}, {"p": set()})
    with pytest.raises(KripkitError) as e:
        truth_mask(m, phi)
    assert e.value.code == "not-a-formula"
