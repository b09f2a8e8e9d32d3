import dataclasses
import hashlib
import importlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kripkit import (And, Atom, Bot, D, Dhat, Eee, Formula, Iff, Implies, K,
                     KripkitError, Model, Not, Or, SearchBounds, See, Sse,
                     Top, agents_of, atoms_of, c_greater, check_validity,
                     complexity, desugar, ndc, nsc, parse, print_formula,
                     satisfies, translate, translate_traced, truth_mask)
from kripkit.engine import compile_program
from kripkit.formula import symbols_of

import gen


def rt(text):
    return print_formula(parse(text))


def test_parse_basics():
    assert parse("p") == Atom("p")
    assert parse("~p") == Not(Atom("p"))
    assert parse("p & q") == And(Atom("p"), Atom("q"))
    assert parse("true") == Top()
    assert parse("false") == Bot()
    assert parse("K_a p") == K("a", Atom("p"))
    assert parse("D{a,b} p") == D(frozenset("ab"), Atom("p"))
    assert parse("[eee] p") == Eee(Atom("p"))
    assert parse("[see a,b] p") == See(frozenset("ab"), Atom("p"))
    assert parse("[see ] p") == See(frozenset(), Atom("p"))
    assert parse("[sse a | p & q] r") == Sse(frozenset("a"),
                                             And(Atom("p"), Atom("q")),
                                             Atom("r"))
    assert parse("Dhat{a,b | p} q") == Dhat(frozenset("ab"), Atom("p"),
                                            Atom("q"))


def test_precedence_and_associativity():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))
    assert parse("p -> q <-> r") == Iff(Implies(p, q), r)
    assert parse("~p & q") == And(Not(p), q)
    assert parse("~K_a p") == Not(K("a", p))
    assert parse("K_a p & q") == And(K("a", p), q)
    assert parse("[eee] p & q") == And(Eee(p), q)
    assert parse("p | q | r") == Or(Or(p, q), r)
    assert parse("p <-> q -> r") == Iff(p, Implies(q, r))
    assert parse("p -> q | r") == Implies(p, Or(q, r))
    assert parse("~p -> q & r <-> s") == \
        Iff(Implies(Not(p), And(q, r)), Atom("s"))


def test_binary_connectives_round_trip_nested_each_side():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    binary = (Iff, Implies, Or, And)
    for outer in binary:
        for inner in binary:
            for x in (outer(inner(p, q), r), outer(p, inner(q, r))):
                assert parse(print_formula(x)) == x, print_formula(x)


def test_first_pipe_separates_topic():
    # the topic may itself contain '|'
    f = parse("[sse a | p | q] r")
    assert f == Sse(frozenset("a"), Or(Atom("p"), Atom("q")), Atom("r"))


def test_print_pins():
    assert print_formula(K("a", Atom("p"))) == "K_a p"
    assert print_formula(Sse(frozenset("a"), Atom("p"), Atom("q"))) == \
        "[sse a | p] q"
    assert print_formula(Dhat(frozenset("ba"), Atom("p"), Atom("q"))) == \
        "Dhat{a,b | p} q"
    assert print_formula(See(frozenset(), Atom("p"))) == "[see ] p"
    assert print_formula(D(frozenset("cab"), Atom("p"))) == "D{a,b,c} p"
    assert rt("p & q | r") == "p & q | r"
    assert rt("p & (q | r)") == "p & (q | r)"
    assert rt("(p -> q) -> r") == "(p -> q) -> r"
    assert rt("p -> q -> r") == "p -> q -> r"
    assert rt("~(p & q)") == "~(p & q)"


@pytest.mark.parametrize("bad", [
    "", "p &", "(p", "p)", "K_", "D{a", "D p", "[see a", "[sse a] p",
    "[bogus] p", "p q", "Dhat{a} p", "1p", "p & & q",
])
def test_syntax_errors(bad):
    with pytest.raises(KripkitError) as e:
        parse(bad)
    assert e.value.code == "syntax-error"


@pytest.mark.parametrize("text", ["~" * 3000 + "p",
                                  "(" * 3000 + "p" + ")" * 3000])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(KripkitError) as e:
        parse(text)
    assert str(e.value) == "syntax-error: formula nested too deeply"


def test_nesting_below_the_floor_parses():
    # depths the parser must keep accepting: from a plain script it takes
    # at least 330 parentheses and 990 ~, and the test runner's own frames
    # take some of that
    assert parse("(" * 300 + "p" + ")" * 300) == Atom("p")
    f = parse("~" * 900 + "p")
    for _ in range(900):
        f = f.sub
    assert f == Atom("p")


def test_syntax_error_reports_position():
    with pytest.raises(KripkitError) as e:
        parse("p & $")
    assert "position 4" in str(e.value)


@pytest.mark.parametrize("text, message", [
    ("p & $", "syntax-error: position 4: unexpected character '$'"),
    ("K_ p", "syntax-error: position 0: unexpected character 'K'"),
    ("K_A p", "syntax-error: position 0: unexpected character 'K'"),
    ("D p", "syntax-error: position 0: unexpected character 'D'"),
    ("p <- q", "syntax-error: position 2: unexpected character '<'"),
    ("x_1 & X", "syntax-error: position 6: unexpected character 'X'"),
    ("p &\xa0q \xa0#", "syntax-error: position 7: unexpected character '#'"),
    ("\u00e9", "syntax-error: position 0: unexpected character '\u00e9'"),
    ("p q", "syntax-error: position 2: trailing input 'q'"),
    ("  p  q ", "syntax-error: position 5: trailing input 'q'"),
    ("p,q", "syntax-error: position 1: trailing input ','"),
    ("(p", "syntax-error: position 2: expected ')', got ''"),
    ("p &  ", "syntax-error: position 5: expected a formula, got ''"),
    ("p\t&\n~", "syntax-error: position 5: expected a formula, got ''"),
    ("", "syntax-error: position 0: expected a formula, got ''"),
    ("()", "syntax-error: position 1: expected a formula, got ')'"),
    ("p & & q", "syntax-error: position 4: expected a formula, got '&'"),
    ("D{a,} p", "syntax-error: position 4: expected 'ident', got '}'"),
    ("[sse a] p", "syntax-error: position 6: expected '|', got ']'"),
    ("[sse a | p q", "syntax-error: position 11: expected ']', got 'q'"),
    ("Dhat{a | p q", "syntax-error: position 11: expected '}', got 'q'"),
    ("[bogus] p", "syntax-error: position 1: unknown operator [bogus]"),
    ("D{} p", "empty-group: position 0: D{} is not a modality"),
    ("Dhat{ | p} q", "empty-group: position 0: Dhat{} is not a modality"),
])
def test_syntax_error_messages_are_pinned(text, message):
    # codes and messages as the tokenizer that matched one token at a time
    # gave them
    with pytest.raises(KripkitError) as e:
        parse(text)
    assert str(e.value) == message


def test_empty_groups_rejected():
    for bad in ("D{} p", "Dhat{ | p} q"):
        with pytest.raises(KripkitError) as e:
            parse(bad)
        assert e.value.code == "empty-group"
    with pytest.raises(KripkitError):
        D(frozenset(), Atom("p"))
    with pytest.raises(KripkitError):
        Dhat(frozenset(), Atom("p"), Atom("q"))


def test_reservation_of_constants():
    # 'true'/'false' are constants, not atoms, but prefixed names are atoms
    assert parse("truex") == Atom("truex")
    assert parse("false_alarm") == Atom("false_alarm")


def test_collectors():
    f = parse("[sse a,b | K_c p] (D{a} q & false)")
    assert atoms_of(f) == frozenset({"p", "q"})
    assert agents_of(f) == frozenset({"a", "b", "c"})


def test_measure_pins():
    p, q = Atom("p"), Atom("q")
    assert nsc(p) == 1
    assert nsc(Not(p)) == 2
    assert nsc(And(p, q)) == 2
    assert nsc(Or(p, q)) == 2
    assert nsc(Implies(p, q)) == 2
    assert nsc(Iff(p, q)) == 2
    assert nsc(K("a", p)) == 2
    assert nsc(D(frozenset("ab"), p)) == 2
    assert nsc(Bot()) == 2
    assert nsc(Top()) == 1
    assert nsc(Eee(p)) == 2
    assert nsc(See(frozenset("a"), p)) == 2
    assert nsc(Sse(frozenset("a"), p, q)) == 9
    assert nsc(Dhat(frozenset("a"), p, q)) == 8
    assert ndc(p) == 0
    assert ndc(Eee(p)) == 1
    assert ndc(See(frozenset("a"), Eee(p))) == 2
    assert ndc(Sse(frozenset("a"), Eee(p), Eee(Eee(q)))) == 4
    assert ndc(And(Eee(p), Eee(Eee(q)))) == 2
    assert ndc(Dhat(frozenset("a"), Eee(p), q)) == 1
    c = complexity(Sse(frozenset("a"), p, q))
    assert (c.nsc, c.ndc) == (9, 1)


def test_c_greater_is_lexicographic():
    p = Atom("p")
    assert c_greater(Eee(p), And(p, And(p, And(p, p))))
    assert c_greater(And(p, p), p)
    assert not c_greater(p, p)
    assert not c_greater(p, Eee(p))


def _ref_nsc(f):
    """The measure's defining recursion, recomputed from scratch."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Bot):
        return 2
    if isinstance(f, Top):
        return 1
    if isinstance(f, (Not, K, D)):
        return 1 + _ref_nsc(f.sub)
    if isinstance(f, (And, Or, Implies, Iff)):
        return 1 + max(_ref_nsc(f.left), _ref_nsc(f.right))
    if isinstance(f, (Eee, See)):
        return 2 * _ref_nsc(f.sub)
    if isinstance(f, Sse):
        return (8 + _ref_nsc(f.topic)) * _ref_nsc(f.sub)
    return 7 + _ref_nsc(f.sub)  # Dhat


def _ref_ndc(f):
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    if isinstance(f, (Not, K, D)):
        return _ref_ndc(f.sub)
    if isinstance(f, (And, Or, Implies, Iff)):
        return max(_ref_ndc(f.left), _ref_ndc(f.right))
    if isinstance(f, (Eee, See)):
        return 1 + _ref_ndc(f.sub)
    if isinstance(f, Sse):
        return 1 + _ref_ndc(f.topic) + _ref_ndc(f.sub)
    return max(_ref_ndc(f.topic), _ref_ndc(f.sub))  # Dhat


def _subformulas(f):
    out = [f]
    for v in (getattr(f, k.name) for k in dataclasses.fields(f)):
        if isinstance(v, Formula):
            out += _subformulas(v)
    return out


def test_cached_measures_match_reference_recursion():
    rng = random.Random(46)
    g = frozenset("ab")
    measured = []
    for i in range(300):
        f = gen.random_formula(rng, rng.randint(0, 5))
        if rng.random() < 0.3:
            f = rng.choice((And(f, Top()), Sse(g, Bot(), f), Dhat(g, f, Bot())))
        subs = _subformulas(f)
        if i % 2:  # measure some subtrees before the root
            for sub in rng.sample(subs, rng.randint(1, len(subs))):
                nsc(sub)
        if measured and rng.random() < 0.5:
            # a new root over an already measured formula
            f = Sse(g, rng.choice(measured), f)
            subs = _subformulas(f)
        for sub in [f] + subs:
            want = (_ref_ndc(sub), _ref_nsc(sub))
            assert (ndc(sub), nsc(sub)) == want, sub
            c = complexity(sub)
            assert (c.ndc, c.nsc) == want
        other = rng.choice(subs)
        assert c_greater(f, other) == \
            ((_ref_ndc(f), _ref_nsc(f)) > (_ref_ndc(other), _ref_nsc(other)))
        measured.append(f)


def test_measures_of_a_deep_formula_do_not_recurse():
    # built directly, so parse's depth limit does not apply; the fallback
    # walk runs from an explicit stack, within the default recursion limit
    def deep():
        f = Atom("p")
        for _ in range(3000):
            f = Not(f)
        return f

    assert sys.getrecursionlimit() < 3000
    assert (ndc(deep()), nsc(deep())) == (0, 3001)
    c = complexity(deep())
    assert (c.ndc, c.nsc) == (0, 3001)
    f = deep()
    assert c_greater(f, Not(Atom("p"))) and not c_greater(Atom("p"), f)
    assert (ndc(f), nsc(f)) == (0, 3001)


def test_measure_cache_leaves_construction_and_equality_alone():
    f = parse("[sse a | p & q] D{a,b} (p -> [see a] K_b q)")
    fresh = parse(print_formula(f))
    nsc(f)
    assert f == fresh and hash(f) == hash(fresh)
    assert type(Formula) is type and "__slots__" not in vars(Formula)
    assert all(cls.__new__ is object.__new__
               for cls in (Formula, Atom, Not, And, D, Eee, See, Sse))
    # one cached attribute per node, next to the dataclass fields
    names = [k.name for k in dataclasses.fields(f)]
    assert list(vars(f))[:len(names)] == names
    assert len(vars(f)) == len(names) + 1
    assert len(vars(fresh)) == len(names)


def test_table_builds_nodes_as_their_constructors_do():
    F = importlib.import_module("kripkit.formula")
    t = F._Shared()
    p, q = t.atom(Atom("p")), t.atom(Atom("q"))
    g, h = t.group("ab"), t.group("b")
    eee = t.emit(Eee, q)
    cases = [(Not, (p,)), (And, (p, eee)), (D, (g, q)), (Eee, (p,)),
             (See, (h, eee)), (Sse, (h, p, eee)), (Dhat, (g, eee, q))]
    for cls, args in cases:
        built = t.emit(cls, *args)
        want = cls(*args)
        assert built == want and hash(built) == hash(want)
        assert print_formula(built) == print_formula(want)
        assert list(vars(built)) == list(vars(want)) + ["_measures_"]
        # the pair set at birth is the fallback walk's on a fresh copy
        assert built._measures_ == F._measures(parse(print_formula(want)))
    for cls, args in ((D, (frozenset(), p)), (Dhat, (frozenset(), p, q))):
        with pytest.raises(KripkitError) as e:
            t.emit(cls, *args)
        assert e.value.code == "empty-group"


def test_desugar_static_core():
    p, q = Atom("p"), Atom("q")
    assert desugar(Or(p, q)) == Not(And(Not(p), Not(q)))
    assert desugar(Implies(p, q)) == Not(And(p, Not(q)))
    assert desugar(K("a", p)) == D(frozenset("a"), p)
    assert desugar(Bot()) == Not(Top())
    assert desugar(Top()) == Top()
    d = desugar(Dhat(frozenset("a"), p, q))
    assert ndc(d) == 0 and atoms_of(d) == frozenset({"p", "q"})


def test_desugar_gives_exact_core_forms():
    p, q = Atom("p"), Atom("q")
    assert desugar(Iff(p, q)) == And(Not(And(p, Not(q))), Not(And(q, Not(p))))
    g = frozenset("ab")
    d = desugar(Dhat(g, p, q))
    assert d == And(Not(And(p, Not(D(g, Not(And(p, Not(q))))))),
                    Not(And(Not(p), Not(D(g, Not(And(Not(p), Not(q))))))))
    # the two ~chi are one object
    first, second = d.right.sub.left, d.right.sub.right.sub.sub.sub.left
    assert first == second == Not(p) and first is second
    # the two false share one Top; one false object is rewritten once
    b = desugar(And(Bot(), Bot()))
    assert b == And(Not(Top()), Not(Top())) and b.left.sub is b.right.sub
    bot = Bot()
    shared = desugar(And(bot, bot))
    assert shared.left is shared.right
    k = desugar(K("a", p))
    assert type(k) is D and k.group == frozenset({"a"}) and k.sub is p


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        f = gen.random_formula(rng, rng.randint(0, 4))
        assert parse(print_formula(f)) == f


@st.composite
def formulas(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    return gen.random_formula(rng, rng.randint(0, 4))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_round_trip_property(f):
    assert parse(print_formula(f)) == f


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_desugar_idempotent_and_core(f):
    d = desugar(f)
    assert ndc(d) == ndc(f)
    assert desugar(d) == d


def _every_connective(rng, depth, shared):
    """A formula that can use every constructor. Some children are earlier
    subformula objects again, so the batch also prints shared nodes."""
    if shared and rng.random() < 0.1:
        return rng.choice(shared)
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Atom("p"), Atom("q"), Top(), Bot()))
    sub = lambda: _every_connective(rng, depth - 1, shared)
    group = lambda least: frozenset(rng.sample("abc", rng.randint(least, 3)))
    kind = rng.randrange(13)
    if kind == 0:
        out = Not(sub())
    elif kind < 5:
        out = (And, Or, Implies, Iff)[kind - 1](sub(), sub())
    elif kind == 5:
        out = Implies(Implies(sub(), sub()), sub())
    elif kind == 6:
        out = Iff(Iff(sub(), sub()), Implies(sub(), sub()))
    elif kind == 7:
        out = K(rng.choice("abc"), sub())
    elif kind == 8:
        out = D(group(1), sub())
    elif kind == 9:
        out = Eee(sub())
    elif kind == 10:
        out = See(group(0), sub())
    elif kind == 11:
        out = Sse(group(0), sub(), sub())
    else:
        out = Dhat(group(1), sub(), sub())
    shared.append(out)
    return out


def test_printed_batch_is_pinned():
    # sha256 taken on the tree-walking printer this one replaced
    rng = random.Random(71)
    shared = []
    texts = [print_formula(_every_connective(rng, rng.randint(0, 5), shared))
             for _ in range(400)]
    for name in ("Top()", "Bot()", "Dhat(", "Iff(", "Implies(left=Implies("):
        assert any(name in repr(f) for f in shared), name
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
        "7179d4b98325c4ff8b0c274445b835b4005c12f39160c3a0fa203fb2d144b4fc"


def _desugar_inputs():
    rng = random.Random(71)
    shared = []
    for _ in range(400):
        yield _every_connective(rng, rng.randint(0, 5), shared)
    rng = random.Random(72)
    for _ in range(200):
        yield gen.random_formula(rng, rng.randint(0, 5))


def test_desugar_is_hash_consed_and_measured(monkeypatch):
    TR = importlib.import_module("kripkit.translate")
    real_tau, rosters = TR._tau, []

    def recording_tau(phi, roster, table):
        rosters.append(roster)
        return real_tau(phi, roster, table)

    monkeypatch.setattr(TR, "_tau", recording_tau)
    for f in _desugar_inputs():
        d = desugar(f)
        objects, todo = {}, [d]
        while todo:
            g = todo.pop()
            if id(g) not in objects:
                objects[id(g)] = g
                todo += [v for v in vars(g).values() if isinstance(v, Formula)]
        # equal objects would have equal keys, from the bottom up
        keys = {(type(g),) + tuple(
            id(v) if isinstance(v, Formula) else v
            for v in (getattr(g, k.name) for k in dataclasses.fields(g)))
            for g in objects.values()}
        assert len(keys) == len(objects), f
        for g in objects.values():
            if g is not d or not isinstance(d, (Atom, Top)):  # leaf: on read
                assert g._measures_ == (_ref_ndc(g), _ref_nsc(g)), g
        assert symbols_of(d) == symbols_of(f)
        translate_traced(f)
        assert rosters[-1] == agents_of(f)


def _deep_not():
    f = Atom("p")
    for _ in range(3000):
        f = Not(f)
    return f


@pytest.mark.parametrize("call", [
    desugar, agents_of, translate,
    lambda f: compile_program(f, ("a",), ("p",)),
    lambda f: check_validity(f, SearchBounds(1, ("a",), ("p",))),
    print_formula, str,
    lambda f: satisfies(_ONE_WORLD, "w0", f),
], ids=["desugar", "agents_of", "translate", "compile_program",
        "check_validity", "print_formula", "str", "satisfies"])
def test_deep_formula_raises_a_stable_code(call):
    # built directly, so parse's depth limit does not apply
    f = _deep_not()
    assert sys.getrecursionlimit() < 3000
    with pytest.raises(KripkitError) as e:
        call(f)
    assert e.value.code == "nested-too-deeply"
    assert (ndc(f), nsc(f)) == (0, 3001)


def _tree_copy(f):
    if isinstance(f, (And, Implies)):
        return type(f)(_tree_copy(f.left), _tree_copy(f.right))
    return parse(print_formula(f))


def test_shared_nodes_are_walked_once():
    # 2**64 occurrences of the leaf: a walk over occurrences would hash its
    # names more often than gen.CountedName allows
    assert symbols_of(gen.doubled(64)) == (frozenset("pq"), frozenset("ab"))
    d = desugar(gen.doubled(64))
    assert d.sub.left is d.sub.right.sub
    assert symbols_of(d) == (frozenset("pq"), frozenset("ab"))
    small = gen.doubled(10)
    copy = _tree_copy(small)
    assert copy == small and copy.left is not copy.right
    assert print_formula(small) == print_formula(copy)
    assert desugar(small) == desugar(copy)


_ONE_WORLD = Model.build(("w0",), ("a",), ("p",), {"a": set()}, {"p": set()})


@pytest.mark.parametrize("call", [
    lambda: check_validity("p", SearchBounds(1, ("a",), ("p",))),
    lambda: translate(None),
    lambda: print_formula(3),
    lambda: desugar(3),
    lambda: desugar(And(Atom("p"), 3)),
    lambda: truth_mask(_ONE_WORLD, "p"),
    lambda: truth_mask(_ONE_WORLD, Not("p")),
    lambda: agents_of("p"),
    lambda: atoms_of(K("a", None)),
    lambda: nsc(3),
    lambda: ndc(Not(3)),
    lambda: complexity("p"),
    lambda: c_greater(3, Atom("p")),
    lambda: c_greater(Atom("p"), 3),
], ids=["check_validity", "translate", "print_formula", "desugar",
        "desugar-nested", "truth_mask", "truth_mask-nested", "agents_of",
        "atoms_of-nested", "nsc", "ndc-nested", "complexity", "c_greater",
        "c_greater-right"])
def test_non_formula_input_is_refused(call):
    with pytest.raises(KripkitError) as e:
        call()
    assert e.value.code == "not-a-formula"
