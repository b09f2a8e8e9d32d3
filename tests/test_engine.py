import gc
import hashlib
import random
import sys
import threading

import pytest

from kripkit import (And, Atom, Bot, D, Dhat, Eee, Iff, Implies, K,
                     KripkitError, Model, Not, Or, SearchBounds, See, Sse, Top,
                     check_validity, desugar, ndc, parse, translate,
                     translate_traced)
from kripkit import engine
from kripkit.engine import (K_ATOM, K_D, K_SEE, K_SSE, Program,
                            backend_name, compile_program, decode_index,
                            run_one, run_range)
from kripkit.validity import axiom_instances, enumerate_models
from kripkit.semantics import truth_mask
from kripkit.validity import decode_model, model_bits

import gen
import oracle_eval as O

AGENTS = ("a", "b")
ATOMS = ("p", "q")


def test_compile_dedups_shared_subterms():
    p = Atom("p")
    f = And(K("a", p), D(frozenset("ab"), K("a", p)))
    prog = compile_program(f, AGENTS, ATOMS)
    # K_a p desugars to a D node appearing twice but compiled once
    assert prog.n_nodes == 4


def test_backend_name_names_the_one_kernel():
    assert backend_name() == "pure"


def test_compile_roster_errors():
    with pytest.raises(KripkitError) as e:
        compile_program(Atom("z"), AGENTS, ATOMS)
    assert e.value.code == "unknown-atom"
    with pytest.raises(KripkitError) as e:
        compile_program(K("z", Atom("p")), AGENTS, ATOMS)
    assert e.value.code == "unknown-agent"


def test_engine_matches_semantics():
    rng = random.Random(61)
    for _ in range(60):
        phi = gen.random_formula(rng, rng.randint(1, 3), atoms=ATOMS,
                                 agents=AGENTS)
        prog = compile_program(phi, AGENTS, ATOMS)
        n = rng.randint(1, 3)
        for _ in range(15):
            idx = rng.randrange(1 << model_bits(n, 2, 2))
            model = decode_model(idx, n, AGENTS, ATOMS)
            assert run_one(prog, n, idx) == _first_failing_world(
                model, phi), (phi, n, idx)


def test_range_reports_first_failure_and_count():
    phi = Not(Atom("p"))  # fails exactly where p holds
    prog = compile_program(phi, ("a",), ("p",))
    # n=1: idx 1 (no edge, p true) is the first failing model, world 0
    assert run_range(prog, 1, 0, 4) == (1, 0, 2)
    # a clean slice reports checked = slice length
    phi2 = Atom("p")
    prog2 = compile_program(phi2, ("a",), ("p",))
    assert run_range(prog2, 1, 1, 2) == (-1, -1, 1)


def test_indices_outside_the_model_space_are_refused():
    prog = compile_program(Not(Atom("p")), ("a",), ("p",))
    top = 1 << model_bits(1, 1, 1)  # 4 models at one world
    assert run_range(prog, 1, 0, top) == (1, 0, 2)
    assert run_range(prog, 1, top, top) == (-1, -1, 0)
    assert run_one(prog, 1, top - 1) == 0
    for start, stop in ((-3, 1), (-1, top), (0, top + 1), (5, 9)):
        with pytest.raises(KripkitError) as e:
            run_range(prog, 1, start, stop)
        assert e.value.code == "index-out-of-range"
    for idx in (-1, top):
        with pytest.raises(KripkitError) as e:
            run_one(prog, 1, idx)
        assert e.value.code == "index-out-of-range"


def _first_failing_world(model, phi):
    """Smallest world of model where phi fails, by the reference semantics."""
    fails = ~truth_mask(model, phi) & ((1 << model.n) - 1)
    return (fails & -fails).bit_length() - 1


def _reference_scan(phi, n, agents, atoms):
    """run_range as the reference semantics sees it: the first model of a
    range with a failing world, each model decoded and evaluated once."""
    fails = {}

    def first_failure(start, stop):
        for idx in range(start, stop):
            if idx not in fails:
                fails[idx] = _first_failing_world(
                    decode_model(idx, n, agents, atoms), phi)
            if fails[idx] >= 0:
                return idx, fails[idx], idx - start + 1
        return -1, -1, stop - start

    return first_failure


def _assert_ranges_match(prog, phi, n, agents, atoms, ranges, seen):
    want = _reference_scan(phi, n, agents, atoms)
    for a, b in ranges:
        got = run_range(prog, n, a, b)
        assert got == want(a, b), (phi, n, a, b)
        seen.add(got[0] >= 0)


# (agents, atoms, world counts) met by every wrapper of the second pass:
# three agents, so that a kernel which reads only the first two is caught,
# and three worlds, where a one-agent roster leaves sse without effect
SCAN_SHAPES = [
    (("a", "b"), ("p", "q"), (1, 2)),
    (("a", "b", "c"), ("p",), (1, 2)),
    (("a",), ("p",), (1, 2, 3)),
    (("a", "b"), ("p",), (1, 2, 3)),
    (("a",), ("p", "q"), (1, 2)),
]
# in the second pass, ranges past 2**SCAN_CAP models scan their first and
# last 2**9 models and windows of at most 2**8 models instead of the whole
# range and unbounded windows; the first pass scans whole ranges
SCAN_CAP = 10


def _group(rng, agents):
    return frozenset(rng.sample(agents, rng.randint(0, len(agents))))


def _node_masks(prog):
    """(kind, a1 is empty, a1 is the whole roster) of each node."""
    whole = (1 << len(prog.agents)) - 1
    return {(k, m == 0, m == whole) for k, m in zip(prog.kinds, prog.a1)}


def _step_forms(prog):
    """The forms of prog's plan steps that the kernel evaluates apart: AND
    with one complemented input, with two (an OR read complemented), D of
    a complemented child, D on a lone agent's frame rows or on a meet, and
    a complemented root."""
    steps, root = engine._plan(prog)
    kind_of = {o: k for k, o, *_ in steps}
    forms = {"not root"} if root < 0 else set()
    for k, o, x, y, w, z in steps:
        if k == engine.K_ANDN:
            forms.add("and one not")
        elif k == engine.K_OR:
            forms.add("and two not")
        elif k in (K_D, engine.K_DN):
            if k == engine.K_DN:
                forms.add("D not")
            rows = kind_of.get(y)
            if y == 0 or rows == K_SSE:
                forms.add("D frame rows")
            elif rows == engine.K_MEET:
                forms.add("D meet")
    return forms


STEP_FORMS = {"and one not", "and two not", "D not", "D frame rows",
              "D meet", "not root"}


@pytest.mark.parametrize("lane_bits", [0, 1, 3, engine.LANE_BITS])
def test_pure_range_matches_per_model_scan(lane_bits, monkeypatch):
    # the blocked run_range must report the first failure that the
    # reference semantics finds model by model, on every range
    monkeypatch.setattr(engine, "LANE_BITS", lane_bits)
    rng = random.Random(63 + lane_bits)
    seen, nodes, forms = set(), set(), set()
    for trial in range(16):
        agents = AGENTS[:rng.randint(1, 2)]
        atoms = ATOMS[:rng.randint(1, 2)]
        phi = gen.random_formula(rng, rng.randint(2, 4), atoms=atoms,
                                 agents=agents)
        group = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        if trial % 3 == 0:
            phi = Eee(phi)
        elif trial % 3 == 1:
            phi = See(group, phi)
        else:
            chi = gen.random_formula(rng, 2, atoms=atoms, agents=agents)
            phi = Sse(group, chi, phi)
        if trial % 2:
            # a valid program over the same nodes scans its whole range
            phi = Or(phi, Not(phi))
        prog = compile_program(phi, agents, atoms)
        nodes |= _node_masks(prog)
        forms |= _step_forms(prog)
        for n in (1, 2):
            top = 1 << model_bits(n, len(agents), len(atoms))
            ranges = [(0, top), (0, 0), (top - 1, top)]
            for _ in range(6):
                a = rng.randrange(top)
                ranges.append((a, rng.randint(a, top)))
            _assert_ranges_match(prog, phi, n, agents, atoms, ranges, seen)
    for trial in range(5 * len(SCAN_SHAPES)):
        # every roster shape meets every wrapper once
        agents, atoms, worlds = SCAN_SHAPES[trial % len(SCAN_SHAPES)]
        chi = gen.random_formula(rng, 2, atoms=atoms, agents=agents)
        # every body reads the last agent's relation
        phi = Iff(gen.random_formula(rng, rng.randint(2, 3), atoms=atoms,
                                     agents=agents), K(agents[-1], chi))
        group = _group(rng, agents)
        wrap = trial // len(SCAN_SHAPES)
        # the same phi object in two frames shares its program nodes
        if wrap == 0:
            phi = And(phi, Eee(phi))
        elif wrap == 1:
            # the last agent's relation meets the first's
            phi = And(phi, See(frozenset(agents[:1]), phi))
        elif wrap == 2:
            phi = Sse(group, chi, phi)
        elif wrap == 3:
            # updates inside the topic and inside the body of an sse
            phi = Sse(group, See(_group(rng, agents), chi),
                      Sse(_group(rng, agents), Eee(chi), phi))
        else:
            # the empty sender group reads as the full relation
            phi = And(See(frozenset(), phi), Sse(frozenset(), chi, phi))
        if rng.random() < 0.4:
            phi = Or(phi, Not(phi))
        prog = compile_program(phi, agents, atoms)
        nodes |= _node_masks(prog)
        forms |= _step_forms(prog)
        for n in worlds:
            bits = model_bits(n, len(agents), len(atoms))
            top = 1 << bits
            ranges = [(0, top), (0, 0), (top - 1, top)]
            window, draws = top, 6
            if bits > SCAN_CAP:
                # frames whose top relation bits are all zero and all one
                ranges[0:1] = [(0, 1 << 9), (top - (1 << 9), top)]
                window, draws = 1 << 8, 4
            for _ in range(draws):
                a = rng.randrange(top)
                ranges.append((a, min(top, a + rng.randint(0, window))))
            _assert_ranges_match(prog, phi, n, agents, atoms, ranges, seen)
    assert seen == {True, False}
    # [eee] is a see node whose mask is the whole roster
    assert (K_SEE, False, True) in nodes
    assert {(K_SEE, True), (K_SSE, True)} <= {(k, e) for k, e, _ in nodes}
    assert forms == STEP_FORMS


def _widen(model, agents):
    """model over the roster agents, which holds model's agents in the same
    order: every other agent's relation is empty."""
    n = model.n
    rows = {a: model.rows[k * n:(k + 1) * n]
            for k, a in enumerate(model.agents)}
    return Model(model.worlds, agents, model.atoms,
                 tuple(r for a in agents for r in rows.get(a, (0,) * n)),
                 model.vals)


def test_widened_index_equals_the_widened_model_index():
    # widen_index moves each kept agent's relation field to its roster
    # position; the reference decodes, widens the model and encodes again
    rng = random.Random(81)
    met = set()
    for agents, atoms, _ in SCAN_SHAPES:
        for n in (1, 2, 3):
            for _ in range(12):
                keep = sorted(rng.sample(range(len(agents)),
                                         rng.randint(0, len(agents))))
                kept = tuple(agents[k] for k in keep)
                idx = rng.randrange(1 << model_bits(n, len(kept), len(atoms)))
                want = engine.model_index(
                    _widen(decode_model(idx, n, kept, atoms), agents))
                assert engine.widen_index(idx, n, keep, len(agents),
                                          len(atoms)) == want, \
                    (agents, atoms, n, keep, idx)
                met.add(len(agents) - len(keep))
    assert met == {0, 1, 2, 3}


def test_pure_range_with_more_valuation_bits_than_lanes():
    # 1 world, 1 agent, 13 atoms: 13 valuation bits, so a block of
    # 2**LANE_BITS lanes holds fixed values for the top atoms
    atoms = tuple(f"p{i}" for i in range(13))
    assert len(atoms) > engine.LANE_BITS
    conj = Atom(atoms[0])
    for t in atoms[1:]:
        conj = And(conj, Atom(t))
    top = 1 << model_bits(1, 1, len(atoms))
    cases = [
        Not(conj),  # fails only where every atom holds
        Not(And(K("a", Atom("p0")), Atom("p12"))),
        Iff(See(frozenset("a"), Atom("p12")), Eee(Atom("p12"))),
        Not(Sse(frozenset("a"), Atom("p12"), D(frozenset("a"), Atom("p1")))),
    ]
    for phi in cases:
        prog = compile_program(phi, ("a",), atoms)
        want = _reference_scan(phi, 1, ("a",), atoms)
        for a, b in [(0, top), (5000, top), (4095, 8193), (1, 4096)]:
            assert run_range(prog, 1, a, b) == want(a, b), (phi, a, b)
    prog = compile_program(Not(conj), ("a",), atoms)
    assert run_range(prog, 1, 0, top) == (8191, 0, 8192)


@pytest.mark.parametrize("scan", ["one", "range"])
def test_hand_built_bad_programs_error(scan):
    def run(prog):
        if scan == "one":
            return run_one(prog, 1, 0)
        return run_range(prog, 1, 0, 4)

    # empty group mask on a D node
    bad = Program(kinds=(K_ATOM, K_D), a1=(0, 0), a2=(0, 0), a3=(0, 0),
                  root=1, agents=AGENTS, atoms=ATOMS)
    with pytest.raises(KripkitError) as e:
        run(bad)
    assert e.value.code == "empty-group"
    # unknown node kind
    bad2 = Program(kinds=(99,), a1=(0,), a2=(0,), a3=(0,), root=0,
                   agents=AGENTS, atoms=ATOMS)
    with pytest.raises(KripkitError) as e:
        run(bad2)
    assert e.value.code == "unknown-schema"


@pytest.mark.parametrize("kinds, a1, a2, a3", [
    ((engine.K_NOT, K_ATOM), (1, 0), (0, 0), (0, 0)),
    ((engine.K_AND, K_ATOM), (1, 1), (1, 0), (0, 0)),
    ((engine.K_NOT,), (0,), (0,), (0,)),
    ((K_SEE, K_ATOM), (1, 0), (1, 0), (0, 0)),
    ((K_ATOM, K_SSE, K_ATOM), (0, 1, 0), (0, 0, 0), (0, 2, 0)),
], ids=["not", "and", "self", "see-body", "sse-body"])
def test_a_node_that_reads_a_later_one_is_refused(kinds, a1, a2, a3):
    # the planner reads each frame in node order, children first, as
    # compile_program emits them
    prog = Program(kinds=kinds, a1=a1, a2=a2, a3=a3,
                   root=kinds.index(K_SSE) if K_SSE in kinds else 0,
                   agents=AGENTS, atoms=ATOMS)
    with pytest.raises(KripkitError) as e:
        run_range(prog, 1, 0, 4)
    assert e.value.code == "unknown-schema"
    assert "which is not before it" in str(e.value)


def test_hand_built_bad_programs_on_an_empty_range():
    # an empty range returns before the schedule is built
    for kinds, a1 in (((K_ATOM, K_D), (0, 0)), ((99,), (0,))):
        m = len(kinds)
        bad = Program(kinds=kinds, a1=a1, a2=(0,) * m, a3=(0,) * m,
                      root=m - 1, agents=AGENTS, atoms=ATOMS)
        for n in (1, 2):
            assert run_range(bad, n, 0, 0) == (-1, -1, 0)
            assert run_range(bad, n, 5, 5) == (-1, -1, 0)


def _oracle_scan(phi, n, agents, atoms, start, stop):
    """run_range as tests/oracle_eval.py sees it."""
    for idx in range(start, stop):
        M = O.to_dict(decode_model(idx, n, agents, atoms))
        for u, w in enumerate(M["W"]):
            if not O.sat(M, w, phi):
                return idx, u, idx - start + 1
    return -1, -1, stop - start


def test_eee_and_see_of_the_roster_plan_the_same_steps():
    # [eee] is compiled as [see Ag] for the whole roster Ag, so the two
    # updates are one node and plan the same steps, which their
    # conjunction plans too
    atoms = ("p",)
    f = K("a", Atom("p"))
    for agents, g in (((), Atom("p")), (("a",), f), (AGENTS, f),
                      (("a", "b", "c"), f)):
        eee = compile_program(Eee(g), agents, atoms)
        assert eee == compile_program(See(frozenset(agents), g), agents,
                                      atoms)
        assert (eee.kinds[eee.root], eee.a1[eee.root]) == \
            (K_SEE, (1 << len(agents)) - 1)
    phi = And(Eee(f), See(frozenset(AGENTS), f))
    prog = compile_program(phi, AGENTS, atoms)
    assert prog.a1[prog.root] == prog.a2[prog.root]
    steps, _ = engine._plan(prog)
    assert steps == engine._plan(compile_program(Eee(f), AGENTS, atoms))[0]
    assert steps == engine._plan(
        compile_program(See(frozenset(AGENTS), f), AGENTS, atoms))[0]
    for n in (1, 2):
        top = 1 << model_bits(n, len(AGENTS), len(atoms))
        worlds = [_first_failing_world(decode_model(i, n, AGENTS, atoms), phi)
                  for i in range(top)]
        assert any(w >= 0 for w in worlds)
        for start in range(0, top, max(1, top // 16)):
            fails = [i for i in range(start, top) if worlds[i] >= 0]
            want = ((fails[0], worlds[fails[0]], fails[0] - start + 1)
                    if fails else (-1, -1, top - start))
            assert run_range(prog, n, start, top) == want, (n, start)


def test_see_frames_plan_as_meets_on_the_frame_below():
    # under [see S] a group's relation R_G is R_{G|S} of the frame below
    # (the see-D axiom; [eee] is [see Ag]), so each pair plans the same
    # steps and root, and both sides of an sse-free see-D or eee-D axiom
    # plan the same D step, which the Iff folds away
    p, a, b, ab = Atom("p"), frozenset("a"), frozenset("b"), frozenset(AGENTS)
    pairs = [(See(b, D(a, p)), D(ab, See(b, p))),
             (See(a, See(b, K("a", p))), See(ab, K("a", p))),
             (Eee(D(a, p)), D(ab, Eee(p)))]
    cases = [(phi, (1, 2)) for pair in pairs for phi in pair]
    for left, right in pairs:
        plan = engine._plan(compile_program(left, AGENTS, ATOMS))
        assert plan == engine._plan(compile_program(right, AGENTS, ATOMS))
        assert [k for k, *_ in plan[0]] == [engine.K_MEET, K_D]
    for schema in ("see-D", "eee-D"):
        kept = 0
        for phi in axiom_instances(schema, count=200):
            prog = compile_program(phi, AGENTS, ATOMS)
            if K_SSE not in prog.kinds:
                assert engine._plan(prog)[0] == [], phi
                cases.append((phi, (1,)))
                kept += 1
        assert kept == 184
    for phi, sizes in cases:
        prog = compile_program(phi, AGENTS, ATOMS)
        for n in sizes:
            top = 1 << model_bits(n, len(AGENTS), len(ATOMS))
            assert run_range(prog, n, 0, top) == \
                _oracle_scan(phi, n, AGENTS, ATOMS, 0, top), (phi, n)


def test_excluded_middle_plans_no_step():
    # phi | ~phi folds to top, so no step below the fold is planned: only an
    # sse step would stay
    rng = random.Random(91)
    planned = dropped = 0
    while planned < 24:
        phi = gen.random_formula(rng, 4, ATOMS, AGENTS)
        phi = (Eee(phi), See(_group(rng, AGENTS), phi), phi)[planned % 3]
        prog = compile_program(phi, AGENTS, ATOMS)
        if K_SSE in prog.kinds:
            continue
        dropped += len(engine._plan(prog)[0])
        prog = compile_program(Or(phi, Not(phi)), AGENTS, ATOMS)
        # the top register follows the frame, the atoms and the empty
        # group's rows
        assert engine._plan(prog) == ([], len(ATOMS) + 2), phi
        top = 1 << model_bits(2, len(AGENTS), len(ATOMS))
        assert run_range(prog, 2, 0, top) == (-1, -1, top)
        planned += 1
    assert dropped


_P = Atom("p")


@pytest.mark.parametrize("phi, agents, kinds", [
    (Sse(frozenset("a"), _P, _P), ("a",), [K_SSE]),
    (Sse(frozenset("a"), _P, And(_P, _P)), ("a",), [K_SSE]),
    (See(frozenset("b"), Sse(frozenset("a"), _P, _P)), AGENTS,
     [K_SEE, K_SSE]),
], ids=["p", "p-and-p", "see-over-sse"])
def test_a_kept_sse_step_still_checks_its_two_forms(monkeypatch, phi, agents,
                                                    kinds):
    # [sse {a} | p] p is p: the sse step writes a frame nothing reads, yet it
    # is planned, and it still compares its subtractive and intersection
    # forms on every block. The fold of p & p makes the plan run its
    # backward pass, which keeps the step too. Under [see {b}] the sse step
    # reads every agent's rows of the see frame, so a see step builds it:
    # the one place a see step is planned.
    prog = compile_program(phi, agents, ("p",))
    steps, root = engine._plan(prog)
    assert [k for k, *_ in steps] == kinds and root == 1
    top = 1 << model_bits(2, len(agents), 1)
    assert run_range(prog, 2, 0, top) == \
        _oracle_scan(phi, 2, agents, ("p",), 0, top) == (0, 0, 1)
    monkeypatch.setattr(engine, "and_", engine.or_)
    with pytest.raises(KripkitError) as e:
        run_range(prog, 2, 0, top)
    assert e.value.code == "definition-mismatch"


def _wrapped_frames_scan_as_the_oracle(wrap):
    rng = random.Random(71)
    agents, atoms = AGENTS, ("p",)
    p = Atom("p")
    for trial in range(6):
        phi = Iff(gen.random_formula(rng, 2, atoms, agents),
                  K(agents[trial % 2], p))
        group = _group(rng, agents)
        if wrap == "eee-eee":
            single = Eee(phi)
            phi = And(Eee(phi), Eee(Eee(phi)))
        elif wrap == "see-see":
            # see with the empty group keeps the frame it is given
            single = See(group, phi)
            phi = And(See(group, See(group, phi)),
                      See(group, See(frozenset(), phi)))
        else:
            still = Or(p, Not(p)) if trial % 2 else K("a", Or(p, Not(p)))
            phi = And(phi, Sse(group, still, phi))
        plan = engine._plan(compile_program(phi, agents, atoms))
        if wrap == "sse-still":
            assert K_SSE in [k for k, *_ in plan[0]], phi
        else:
            assert plan == engine._plan(compile_program(single, agents,
                                                        atoms)), phi
        if trial % 2:
            phi = Or(phi, Not(phi))
        prog = compile_program(phi, agents, atoms)
        for n in (1, 2):
            top = 1 << model_bits(n, len(agents), len(atoms))
            for a, b in ((0, top), (rng.randrange(top), top)):
                assert run_range(prog, n, a, b) == \
                    _oracle_scan(phi, n, agents, atoms, a, b), (phi, n, a, b)


@pytest.mark.parametrize("wrap", ["eee-eee", "see-see"])
def test_repeated_eee_and_see_plan_as_the_single_update(wrap):
    # a see frame is (register, sender mask), and [eee] is [see Ag]: under
    # [eee][eee], [see S][see S] and [see S][see {}] the body sits on the
    # single update's frame, so the conjunction plans exactly what the
    # single update plans
    _wrapped_frames_scan_as_the_oracle(wrap)


def test_a_still_sse_builds_its_frame_in_a_register_of_its_own():
    # an sse whose topic never crosses builds a frame equal to the one below
    # it, in a register of its own, by its K_SSE step
    _wrapped_frames_scan_as_the_oracle("sse-still")


def test_one_program_at_several_sizes_and_widths(monkeypatch):
    # one plan serves a program at every size and width; scans at other
    # sizes and widths in between must not disturb one another
    built = []
    plan = engine._plan
    monkeypatch.setattr(engine, "_plan", lambda p: built.append(p) or plan(p))
    rng = random.Random(72)
    for trial in range(6):
        chi = gen.random_formula(rng, 2, ATOMS, AGENTS)
        phi = Sse(_group(rng, AGENTS), chi,
                  And(gen.random_formula(rng, 3, ATOMS, AGENTS),
                      Eee(K("b", chi))))
        if trial % 2:
            phi = Or(phi, Not(phi))
        prog = compile_program(phi, AGENTS, ATOMS)
        for lane_bits in (engine.LANE_BITS, 0, 3, 1, engine.LANE_BITS):
            monkeypatch.setattr(engine, "LANE_BITS", lane_bits)
            for n in (2, 1, 3, 2):
                fresh = compile_program(phi, AGENTS, ATOMS)
                top = 1 << model_bits(n, len(AGENTS), len(ATOMS))
                for _ in range(3):
                    a = rng.randrange(top)
                    b = min(top, a + rng.randint(0, 300))
                    assert run_range(prog, n, a, b) == \
                        run_range(fresh, n, a, b), (phi, lane_bits, n, a, b)
                    assert run_one(prog, n, a) == run_one(fresh, n, a)
        assert sum(p is prog for p in built) == 1


def test_programs_of_equivalence_checks_are_pinned():
    # the programs check_equivalence(phi, translate(phi)) compiles for the
    # first 200 criterion-3 formulas; sha256 taken on the compiler that
    # emits [eee] as a see node over the whole roster, with no eee kind
    rng = random.Random(31415)
    h, done = hashlib.sha256(), 0
    while done < 200:
        phi = gen.random_formula(rng, 4, ATOMS, AGENTS)
        if ndc(phi) == 0:
            continue
        prog = compile_program(Iff(phi, translate(phi, agents=AGENTS)),
                               AGENTS, ATOMS)
        h.update(repr((prog.kinds, prog.a1, prog.a2, prog.a3,
                       prog.root)).encode())
        done += 1
    assert h.hexdigest() == \
        "1dba99e7a8f0b9b4d5d7e817e9eb71345d4b3c97279d2f93eeeac6685d6ad57d"


def test_two_threads_scanning_one_program_get_sequential_results():
    # each scan builds its own register list, so two threads scanning one
    # Program at once, each over its own half of the 3-world space, get
    # what the same scans get one after the other
    prog = compile_program(parse("(D{a,b} p -> [see b] K_a p) & "
                                 "([see a] K_b q -> K_a K_b q)"),
                           AGENTS, ATOMS)
    top = 1 << model_bits(3, len(AGENTS), len(ATOMS))
    # windows of 32 blocks of 64 lanes
    parts = [[(a, a + 2048) for a in range(h, h + top // 2, top // 256)]
             for h in (0, top // 2)]
    want = [[run_range(prog, 3, a, b) for a, b in part] for part in parts]
    got = [None, None]

    def scan(i):
        got[i] = [run_range(prog, 3, a, b) for a, b in parts[i]]

    interval = sys.getswitchinterval()
    # hand the GIL over every few steps, not every few blocks
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scan, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert {r[0] < 0 for part in want for r in part} == {True, False}


def test_shared_program_input_is_compiled_once():
    # 2**64 occurrences of the leaf, 65 objects
    prog = compile_program(gen.doubled(64), AGENTS, ATOMS)
    leaf = compile_program(gen.doubled(0), AGENTS, ATOMS)
    # And(f, f) adds one node, Implies(f, f) = ~(f & ~f) three
    assert prog.n_nodes == leaf.n_nodes + 32 * 1 + 32 * 3
    # every level from the second on is an implication f -> f
    for n in (1, 2):
        assert run_range(prog, n, 0, 1 << model_bits(n, 2, 2))[0] == -1


def test_duplicate_roster_entries_rejected():
    for agents, atoms in ((("a", "a"), ATOMS), (AGENTS, ("p", "q", "p"))):
        with pytest.raises(KripkitError) as e:
            compile_program(Atom("p"), agents, atoms)
        assert e.value.code == "duplicate-roster-entry"


@pytest.mark.parametrize("call", [
    lambda prog: run_range(prog, 0, 0, 1),
    lambda prog: run_range(prog, -1, 0, 0),
    lambda prog: run_one(prog, 0, 0),
    lambda prog: decode_index(0, 0, 1, 1),
    lambda prog: decode_index(0, -1, 1, 1),
    lambda prog: decode_model(0, 0, ("a",), ("p",)),
    lambda prog: next(enumerate_models(0, ("a",), ("p",))),
], ids=["run_range", "run_range-negative", "run_one", "decode_index",
        "decode_index-negative", "decode_model", "enumerate_models"])
def test_world_counts_below_one_are_refused(call):
    prog = compile_program(Atom("p"), ("a",), ("p",))
    with pytest.raises(KripkitError) as e:
        call(prog)
    assert e.value.code == "bounds-too-large"


# every sugared and core constructor, over children drawn from a pool so
# that one object sits under several parents
_BUILDERS = [
    lambda rng, a, b: Not(a),
    lambda rng, a, b: And(a, b),
    lambda rng, a, b: Or(a, b),
    lambda rng, a, b: Implies(a, b),
    lambda rng, a, b: Iff(a, b),
    lambda rng, a, b: K(rng.choice(AGENTS), a),
    lambda rng, a, b: D(_group(rng, AGENTS) or AGENTS, a),
    lambda rng, a, b: Eee(a),
    lambda rng, a, b: See(_group(rng, AGENTS), a),
    lambda rng, a, b: Sse(_group(rng, AGENTS), a, b),
    lambda rng, a, b: Dhat(_group(rng, AGENTS) or AGENTS, a, b),
]


def test_compiling_sugar_equals_compiling_its_core_form():
    # compile_program reads Or, Implies, Iff, K, Dhat and Bot itself and
    # emits the nodes desugar(phi) gives, in the same order
    rng = random.Random(2718)
    met = set()
    for trial in range(400):
        pool = [gen.random_formula(rng, rng.randint(0, 3), ATOMS, AGENTS)
                for _ in range(3)] + [Top(), Bot()]
        for _ in range(rng.randint(1, 6)):
            build = rng.choice(_BUILDERS)
            pool.append(build(rng, rng.choice(pool), rng.choice(pool)))
        phi = pool[-1] if trial % 2 else And(pool[-1], rng.choice(pool))
        met.update(type(f) for f in pool)
        got = compile_program(phi, AGENTS, ATOMS)
        assert got == compile_program(desugar(phi), AGENTS, ATOMS), phi
    assert met == {Atom, Top, Bot, Not, And, Or, Implies, Iff, K, D, Eee,
                   See, Sse, Dhat}


def test_a_non_formula_and_an_unknown_name_report_the_first_met():
    # the walk that compiles reports whichever it meets first, left to
    # right; desugaring the whole formula first gave not-a-formula for both
    bounds = SearchBounds(1, ("a",), ("p",))
    for phi, code in ((And(Atom("z"), 3), "unknown-atom"),
                      (And(K("b", Atom("p")), 3), "unknown-agent"),
                      (And(3, Atom("z")), "not-a-formula"),
                      (Or(Atom("p"), 3), "not-a-formula")):
        with pytest.raises(KripkitError) as e:
            check_validity(phi, bounds)
        assert e.value.code == code, phi


def test_a_group_is_checked_before_the_child_it_binds():
    # the core rewrite takes a group before its child, and Dhat's topic
    # before its group
    z, p = Atom("z"), Atom("p")
    b = frozenset("b")
    for phi, code in ((K("b", z), "unknown-agent"),
                      (D(b, z), "unknown-agent"),
                      (See(b, z), "unknown-agent"),
                      (Sse(b, z, p), "unknown-agent"),
                      (Dhat(b, z, p), "unknown-atom"),
                      (Dhat(b, p, z), "unknown-agent")):
        with pytest.raises(KripkitError) as e:
            compile_program(phi, ("a",), ("p",))
        assert e.value.code == code, phi


def _raises(code, call, *args):
    try:
        call(*args)
    except KripkitError as e:
        assert e.code == code
    else:
        raise AssertionError(f"no {code}")


def test_checks_leave_no_cyclic_garbage():
    # compiling and planning walk with explicit context arguments, so a
    # check leaves nothing for the cyclic collector
    model = Model.build(("w0", "w1"), AGENTS, ATOMS,
                        {"a": {("w0", "w1")}, "b": set()}, {"p": {"w1"}})
    empty_d = Program(kinds=(K_ATOM, K_D), a1=(0, 0), a2=(0, 0), a3=(0, 0),
                      root=1, agents=AGENTS, atoms=ATOMS)
    exhaustive = SearchBounds(2, AGENTS, ATOMS)
    sampled = SearchBounds(3, AGENTS, ATOMS, sample=50, seed=7)
    calls = [
        lambda: check_validity(parse("K_a p -> p"), exhaustive),
        lambda: check_validity(parse("Dhat{a | q} p -> D{a,b} p"),
                               exhaustive),
        lambda: check_validity(parse("[sse a | q] K_b p <-> K_b p"),
                               sampled),
        lambda: check_validity(parse("[eee] (p | ~p)"), sampled),
        lambda: _raises("unknown-atom", check_validity, parse("K_a z"),
                        exhaustive),
        lambda: _raises("empty-group", run_range, empty_d, 1, 0, 4),
        lambda: _raises("syntax-error", parse, "p & $"),
        lambda: translate_traced(parse("[see a] K_b p & [eee] q"), AGENTS),
        lambda: truth_mask(model, parse("Dhat{a,b | q} ~p | K_a p")),
    ]
    for call in calls:  # first calls may fill caches
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_updates_sharing_a_frame_plan_their_body_once(monkeypatch):
    # [see a] W & [see a] (W & p) reads both bodies on one frame, and W
    # holds the same pair one level down: planned once per (body, frame),
    # the plan takes two body passes per level, where one per path would
    # take 2**depth
    depth = 12
    p = Atom("p")
    w = K("a", p)
    for _ in range(depth):
        w = And(See(frozenset("a"), w), See(frozenset("a"), And(w, p)))
    prog = compile_program(w, ("a",), ("p",))
    passes = []
    frame = engine._frame
    monkeypatch.setattr(engine, "_frame",
                        lambda p, top, f, s: passes.append(top) or
                        frame(p, top, f, s))
    engine._plan(prog)
    assert len(passes) == 1 + 2 * depth
    top = 1 << model_bits(1, 1, 1)
    assert run_range(prog, 1, 0, top) == \
        _oracle_scan(w, 1, ("a",), ("p",), 0, top)
