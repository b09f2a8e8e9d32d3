import hashlib
import random

import pytest

from kripkit import (And, Atom, D, Eee, Iff, K, KripkitError, Not, Or, See,
                     Sse, ndc, translate)
from kripkit import engine
from kripkit.engine import (K_ATOM, K_D, K_EEE, K_SEE, K_SSE, Program,
                            backend_name, compile_program, run_one, run_range)
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


@pytest.mark.parametrize("lane_bits", [0, 1, 3, engine.LANE_BITS])
def test_pure_range_matches_per_model_scan(lane_bits, monkeypatch):
    # the blocked run_range must report the first failure that the
    # reference semantics finds model by model, on every range
    monkeypatch.setattr(engine, "LANE_BITS", lane_bits)
    rng = random.Random(63 + lane_bits)
    seen, nodes = set(), set()
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
        nodes.update(zip(prog.kinds, [m == 0 for m in prog.a1]))
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
        nodes.update(zip(prog.kinds, [m == 0 for m in prog.a1]))
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
    assert {K_EEE, K_SEE, K_SSE} <= {k for k, _ in nodes}
    assert {(K_SEE, True), (K_SSE, True)} <= nodes


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


@pytest.mark.parametrize("wrap", ["eee-eee", "see-see", "sse-still"])
def test_frames_equal_by_value_in_separate_registers(wrap):
    # [eee][eee], [see S][see S], [see S][see {}] and an sse whose topic
    # never crosses build a frame equal to the one below it, in a register
    # of its own
    rng = random.Random(71)
    agents, atoms = AGENTS, ("p",)
    p = Atom("p")
    for trial in range(6):
        phi = Iff(gen.random_formula(rng, 2, atoms, agents),
                  K(agents[trial % 2], p))
        group = _group(rng, agents)
        if wrap == "eee-eee":
            phi = And(Eee(phi), Eee(Eee(phi)))
        elif wrap == "see-see":
            # see with the empty group keeps the frame it is given
            phi = And(See(group, See(group, phi)),
                      See(group, See(frozenset(), phi)))
        else:
            still = Or(p, Not(p)) if trial % 2 else K("a", Or(p, Not(p)))
            phi = And(phi, Sse(group, still, phi))
        if trial % 2:
            phi = Or(phi, Not(phi))
        prog = compile_program(phi, agents, atoms)
        for n in (1, 2):
            top = 1 << model_bits(n, len(agents), len(atoms))
            for a, b in ((0, top), (rng.randrange(top), top)):
                assert run_range(prog, n, a, b) == \
                    _oracle_scan(phi, n, agents, atoms, a, b), (phi, n, a, b)


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
    # walked every occurrence of a shared node
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
        "6dd2a13eea5e68b0e54b84fff07b8591ee6d76429a214e7050245e944389d0f3"


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
