import dataclasses
import hashlib
import importlib
import os
import random
import subprocess
import sys

import pytest

from kripkit import (And, Atom, Bot, D, Dhat, Eee, Formula, Iff, K,
                     KripkitError, Model, Not, SearchBounds, See, Sse, Top,
                     agents_of, atoms_of, c_greater, check_equivalence,
                     desugar, ndc, parse, print_formula, satisfies, translate,
                     translate_traced, truth_set)
from kripkit.engine import compile_program, run_one
from kripkit.semantics import truth_mask
from kripkit.validity import model_index

import gen
import oracle_eval as O
from test_formula import _ref_ndc, _ref_nsc


def test_frozen_examples():
    p, q = Atom("p"), Atom("q")
    got = translate(Sse(frozenset("ab"), p, D(frozenset("c"), q)),
                    agents=("a", "b", "c"))
    want = desugar(And(D(frozenset("abc"), q), Dhat(frozenset("c"), p, q)))
    assert got == want
    assert translate(Eee(D(frozenset("ab"), p)),
                     agents=("a", "b")) == D(frozenset("ab"), p)
    assert translate(See(frozenset("a"), Not(p))) == Not(p)


def test_output_is_static_and_idempotent():
    rng = random.Random(41)
    for _ in range(150):
        f = gen.random_formula(rng, rng.randint(0, 4))
        out = translate(f, agents=("a", "b", "c"))
        assert ndc(out) == 0
        assert translate(out, agents=("a", "b", "c")) == out


def test_preserves_truth_everywhere():
    rng = random.Random(42)
    for _ in range(120):
        f = gen.random_formula(rng, rng.randint(0, 3))
        out = translate(f, agents=("a", "b", "c"))
        for _ in range(3):
            m = gen.random_model(rng)
            assert truth_set(m, f) == truth_set(m, out), f


def test_trace_steps_strictly_decrease():
    rng = random.Random(43)
    for _ in range(100):
        f = gen.random_formula(rng, rng.randint(1, 4))
        out, trace = translate_traced(f, agents=("a", "b", "c"))
        assert len(trace) >= 1
        for step in trace:
            assert ndc(step.result) == 0
            for called in step.calls:
                assert c_greater(step.formula, called), \
                    (step.formula, called)
        assert trace.steps[0].result == out


def test_trace_clauses_cover_dispatch():
    cases = {
        "atom": "p",
        "not": "~p",
        "and": "p & q",
        "dist": "D{a} p",
        "dyn-atom": "[eee] p",
        "dyn-not": "[eee] ~p",
        "dyn-and": "[eee] (p & q)",
        "eee-dist": "[eee] D{a} p",
        "see-dist": "[see a] D{b} p",
        "sse-dist": "[sse a | p] D{b} q",
        "dyn-dyn": "[eee] [see a] p",
        # the conditional operator only reaches the rewriter as a node built
        # by the sse-dist clause; written directly it desugars at entry
        "dhat": "[sse a | p] D{b} q",
    }
    for clause, text in cases.items():
        _, trace = translate_traced(parse(text), agents=("a", "b"))
        assert any(s.clause == clause for s in trace), (clause, text)


def test_roster_inference_matches_explicit():
    rng = random.Random(44)
    for _ in range(80):
        f = gen.random_formula(rng, rng.randint(1, 3))
        roster = agents_of(f)
        if not roster:
            continue
        assert translate(f) == translate(f, agents=sorted(roster))


def test_eee_over_atom_needs_no_roster():
    # atoms are insensitive to relation changes, so no roster is consulted
    assert translate(Eee(Atom("p"))) == Atom("p")
    assert translate(Eee(Atom("p")), agents=("a",)) == Atom("p")


def test_constants_translate_without_an_atom():
    m = Model.build(("w",), ("a",), ("q",), {"a": set()}, {"q": set()})
    phi = parse("[eee] false -> q")
    assert satisfies(m, "w", phi) and satisfies(m, "w", translate(phi))
    out, trace = translate_traced(parse("[eee] true"))
    assert out == Top() and [s.clause for s in trace] == ["dyn-atom", "atom"]
    _, trace = translate_traced(parse("[sse a | false] K_a false"))
    assert len(trace) == 14


def _with_constants(rng, f):
    """f with about half of its atom leaves replaced by Top() or Bot()."""
    if isinstance(f, Atom):
        return rng.choice((f, f, Top(), Bot()))
    return type(f)(*(_with_constants(rng, v) if isinstance(v, Formula) else v
                     for v in (getattr(f, k.name)
                               for k in dataclasses.fields(f))))


def test_constants_translate_and_check_like_the_semantics():
    rng, swap = random.Random(49), random.Random(50)
    agents, atoms = ("a", "b"), ("q",)
    bounds = SearchBounds(2, agents, atoms)
    for _ in range(100):
        phi = _with_constants(swap, gen.random_formula(
            rng, rng.randint(0, 3), atoms, agents))
        out = translate(phi, agents=agents)
        assert ndc(out) == 0 and atoms_of(out) <= set(atoms), phi
        prog = compile_program(phi, agents, atoms)
        for _ in range(3):
            m = gen.random_model(rng, 3, agents, atoms)
            mask = truth_mask(m, phi)
            assert truth_mask(m, out) == mask, phi
            fails = ~mask & ((1 << m.n) - 1)
            assert run_one(prog, m.n, model_index(m)) == \
                (fails & -fails).bit_length() - 1, phi
            M = O.to_dict(m)
            assert O.truth_set(M, phi) == O.truth_set(M, out) == \
                truth_set(m, phi), phi
        assert check_equivalence(phi, out, bounds).valid, phi


def test_unknown_agent_when_roster_too_small():
    f = See(frozenset("ab"), K("c", Atom("p")))
    with pytest.raises(KripkitError) as e:
        translate(f, agents=("a", "b"))
    assert e.value.code == "unknown-agent"


def test_measure_guard_is_live(monkeypatch):
    # the package re-exports translate() under the module's own name
    TR = importlib.import_module("kripkit.translate")
    f = parse("[sse a | p] D{b} q")
    assert ndc(translate(f, agents=("a", "b"))) == 0
    monkeypatch.setattr(TR, "c_greater", lambda a, b: False)
    with pytest.raises(KripkitError) as e:
        translate(f, agents=("a", "b"))
    assert e.value.code == "measure-violation"


def test_translated_formula_round_trips_through_text():
    rng = random.Random(45)
    for _ in range(40):
        f = gen.random_formula(rng, 3)
        out = translate(f, agents=("a", "b", "c"))
        assert parse(print_formula(out)) == out


README_EXAMPLE = ("[sse a | p] [sse b | q] [sse a,b | p & q] "
                  "D{a,b} (p -> [see a] K_b q)")


def test_measure_check_runs_once_per_call(monkeypatch):
    TR = importlib.import_module("kripkit.translate")
    real, seen = TR.c_greater, []

    def counting(a, b):
        seen.append((a, b))
        return real(a, b)

    monkeypatch.setattr(TR, "c_greater", counting)
    rng = random.Random(47)
    texts = [README_EXAMPLE] + [print_formula(gen.random_formula(rng, 4))
                                for _ in range(60)]
    for text in texts:
        seen.clear()
        _, trace = translate_traced(parse(text), agents=("a", "b", "c"))
        # each distinct step's calls are checked once; a replay re-checks none
        distinct = {id(s): s for s in trace}.values()
        assert len(seen) == sum(len(s.calls) for s in distinct)
        checked = {(id(f), id(g)) for f, g in seen}
        assert all((id(s.formula), id(g)) in checked
                   for s in trace for g in s.calls)
        if text == README_EXAMPLE:
            assert (len(seen), len(distinct), len(trace)) == (520, 401, 9343)


def test_translation_nodes_carry_their_measures_from_birth(monkeypatch):
    F = importlib.import_module("kripkit.formula")
    TR = importlib.import_module("kripkit.translate")
    real_measures, measured = F._measures, []
    real_step, steps = TR.TraceStep, []

    def counting_measures(phi):
        measured.append(phi)
        return real_measures(phi)

    def counting_step(*fields):
        steps.append(fields)
        return real_step(*fields)

    monkeypatch.setattr(F, "_measures", counting_measures)
    monkeypatch.setattr(TR, "TraceStep", counting_step)
    out, trace = translate_traced(parse(README_EXAMPLE), agents=("a", "b"))
    # the table measures each node it builds, so the fallback walk meets
    # none of them
    assert [f for f in measured if not isinstance(f, (Atom, Top))] == []
    assert len(steps) == 401
    monkeypatch.undo()
    for f in _objects(out):
        assert f._measures_ == (_ref_ndc(f), _ref_nsc(f)), f
    # a step is a tuple of its fields
    s = trace.steps[0]
    assert s == (s.formula, s.clause, s.calls, s.result) == tuple(s)


def test_readme_example_trace_is_pinned():
    _, trace = translate_traced(parse(README_EXAMPLE), agents=("a", "b"))
    clauses = "\n".join(s.clause for s in trace)
    assert len(trace) == 9343
    assert hashlib.sha256(clauses.encode()).hexdigest() == \
        "0a75215b564d37e4d14bb703234096676e76d0d14844929f295d8af79f0512dd"


# Each snippet breaks one invariant; under -O it must still raise its code.
# test id -> (error code, snippet)
_UNDER_O = {
    # a rewrite clause that leaves an update behind
    "measure-violation": ("measure-violation", """
import importlib
from kripkit import Atom, Eee
TR = importlib.import_module("kripkit.translate")

def _clause(f, roster, t):
    return "atom", [], lambda t, f, calls, r: Eee(Atom("p"))


TR._clause = _clause
TR.translate(Atom("p"))
"""),
    # the same with 3,000 updates left behind, built outside the table: the
    # result's measures come from the fallback walk, which does not recurse
    "measure-violation-deep": ("measure-violation", """
import importlib
from kripkit import Atom, Eee
TR = importlib.import_module("kripkit.translate")
deep = Atom("p")
for _ in range(3000):
    deep = Eee(deep)

def _clause(f, roster, t):
    return "atom", [], lambda t, f, calls, r: deep


TR._clause = _clause
TR.translate(Atom("p"))
"""),
    # a clause that calls for a directly built [eee] chain 3,000 deep: the
    # failed decrease check's message does not print either formula
    "measure-violation-deep-call": ("measure-violation", """
import importlib
from kripkit import Atom, Eee
TR = importlib.import_module("kripkit.translate")
deep = Atom("p")
for _ in range(3000):
    deep = Eee(deep)

def _clause(f, roster, t):
    return "atom", [deep], lambda t, f, calls, r: f


TR._clause = _clause
TR.translate(Atom("p"))
"""),
    "row-count-mismatch": ("row-count-mismatch", """
from kripkit import Model
m = Model.build(("w0",), ("a",), ("p",), {"a": set()}, {"p": set()})
m.with_rows((0, 0))
"""),
}

_RUNNER = """
import sys
from kripkit import KripkitError
assert False, "asserts are live"
try:
    exec(sys.argv[1])
except KripkitError as e:
    print(e.code)
"""


@pytest.mark.parametrize("case", sorted(_UNDER_O))
def test_invariant_checks_run_under_optimize(case):
    code, snippet = _UNDER_O[case]
    out = subprocess.run([sys.executable, "-O", "-c", _RUNNER, snippet],
                         capture_output=True, text=True, env=dict(os.environ))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == code


class _Tree:
    """A core_form and _clause target that shares nothing: each node it
    emits is a new object."""

    @staticmethod
    def emit(cls, *args):
        return cls(*args)

    @staticmethod
    def atom(f):
        return f

    group = atom


def _reference_traced(phi, agents):
    """Plain recursion over translate._clause, no memo and no shared table:
    the trace as the rewrite clauses define it."""
    TR = importlib.import_module("kripkit.translate")
    F = importlib.import_module("kripkit.formula")
    roster = frozenset(agents)
    steps = []

    def tau(f):
        entry = len(steps)
        steps.append(None)
        clause, calls, finish = TR._clause(f, roster, _Tree)
        got = []
        while True:
            while len(got) < len(calls):
                g = calls[len(got)]
                assert c_greater(f, g)
                got.append(tau(g))
            n = len(calls)
            result = finish(_Tree, f, calls, got)
            if len(calls) == n:  # the finisher added no call
                break
        steps[entry] = (f, clause, tuple(calls), result)
        return result

    return tau(F.core_form(phi, _Tree)), steps


def _numbering():
    """Maps formulas to ints, equal ints exactly for equal formulas; each
    object is numbered once, so large shared outputs compare quickly."""
    table, seen = {}, {}

    def num(f):
        got = seen.get(id(f))
        if got is not None:
            return got[1]
        key = (type(f),) + tuple(
            num(v) if isinstance(v, Formula) else v
            for v in (getattr(f, k.name) for k in dataclasses.fields(f)))
        n = table.setdefault(key, len(table))
        seen[id(f)] = (f, n)  # holding f keeps its id from being reused
        return n

    return num


def _criterion_3_formulas(count):
    rng = random.Random(31415)  # test_acceptance's criterion-3 seed
    out = []
    while len(out) < count:
        phi = gen.random_formula(rng, 4, ("p", "q"), ("a", "b"))
        if ndc(phi) != 0:
            out.append(phi)
    return out


def _trace_inputs():
    rng = random.Random(48)
    yield parse(README_EXAMPLE), ("a", "b")
    for phi in _criterion_3_formulas(200):
        yield phi, ("a", "b")
    for _ in range(100):
        yield gen.random_formula(rng, rng.randint(0, 5)), ("a", "b", "c")


def test_trace_matches_plain_recursion_step_for_step():
    for phi, agents in _trace_inputs():
        out, trace = translate_traced(phi, agents=agents)
        want_out, want = _reference_traced(phi, agents)
        num = _numbering()
        assert num(out) == num(want_out)
        assert len(trace) == len(want)
        for step, (f, clause, calls, result) in zip(trace, want):
            assert step.clause == clause
            assert num(step.formula) == num(f)
            assert [num(g) for g in step.calls] == [num(g) for g in calls]
            assert num(step.result) == num(result)
        assert translate(phi, agents=agents) == out


def test_flat_trace_is_built_once_on_read():
    for phi, agents in _trace_inputs():
        _, trace = translate_traced(phi, agents=agents)
        n = len(trace)
        assert trace._flat is None  # counted from the distinct steps
        steps = trace.steps
        assert len(steps) == n == len(trace)
        assert trace.steps is steps
        assert list(map(id, trace)) == list(map(id, steps))


def _objects(f):
    """The distinct node objects of f."""
    objects, todo = {}, [f]
    while todo:
        f = todo.pop()
        if id(f) not in objects:
            objects[id(f)] = f
            todo += [v for v in vars(f).values() if isinstance(v, Formula)]
    return list(objects.values())


def test_translation_output_is_shared():
    out, trace = translate_traced(parse(README_EXAMPLE), agents=("a", "b"))
    objects = _objects(out)
    assert len(objects) == 392
    # hash-consed: no two distinct objects are equal
    num = _numbering()
    assert len({num(f) for f in objects}) == len(objects)
    assert len({id(s) for s in trace}) == 401
    assert len(print_formula(out)) == 31491


def test_constants_are_shared_in_translation():
    # each false desugars to ~Top; equal constants are translated once and
    # shared, and the trace is the plain recursion's
    phi = parse("[sse a | false] K_a (false & false)")
    out, trace = translate_traced(phi)
    objects = _objects(out)
    assert sum(isinstance(f, Top) for f in objects) == 1
    assert len(objects) == 20
    assert (len(trace), len({id(s) for s in trace})) == (26, 11)
    want_out, want = _reference_traced(phi, ("a",))
    num = _numbering()
    assert num(out) == num(want_out)
    assert [(s.clause, num(s.formula), [num(g) for g in s.calls],
             num(s.result)) for s in trace] == \
        [(clause, num(f), [num(g) for g in calls], num(result))
         for f, clause, calls, result in want]


def test_translation_does_not_recurse_with_the_trace():
    # the README example's trace nests 43 calls deep; the clauses run from
    # an explicit stack, so the frames in use stay far fewer
    phi, depth, frame = parse(README_EXAMPLE), 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        out = translate(phi, agents=("a", "b"))
    finally:
        sys.setrecursionlimit(limit)
    assert len(print_formula(out)) == 31491


def test_measure_check_runs_on_replayed_steps(monkeypatch):
    TR = importlib.import_module("kripkit.translate")
    _, trace = translate_traced(parse(README_EXAMPLE), agents=("a", "b"))
    first = {}
    for i, s in enumerate(trace):
        first.setdefault(id(s), i)
    # a step met again after its first translation: its calls are checked
    # once, when it is first translated, and the flat trace replays it
    i = next(i for i, s in enumerate(trace) if first[id(s)] < i and s.calls)
    f, g = trace.steps[i].formula, trace.steps[i].calls[0]
    real, hits = TR.c_greater, []

    def failing_on_replayed_step(a, b):
        if a == f and b == g:
            hits.append(b)
            return False
        return real(a, b)

    monkeypatch.setattr(TR, "c_greater", failing_on_replayed_step)
    with pytest.raises(KripkitError) as e:
        translate_traced(parse(README_EXAMPLE), agents=("a", "b"))
    assert e.value.code == "measure-violation"
    assert len(hits) == 1
