import hashlib
import random

import pytest

from kripkit import (And, Atom, D, Iff, Implies, K, KripkitError, Not, Or,
                     SCHEMAS, SearchBounds, axiom_instances, check_equivalence,
                     check_validity, decode_model, enumerate_models,
                     formula_pool, model_index, satisfies)
from kripkit import parse, print_formula, validity
from kripkit.engine import compile_program, restrict_program, run_range
from kripkit.formula import Eee, See, Sse, agents_of, ndc
from kripkit.validity import EXHAUSTIVE_BIT_CAP, model_bits

import gen
import oracle_eval as O


def test_decode_table_one_world():
    # 1 world / 1 agent / 1 atom: 2 bits, relation bit first
    ms = [decode_model(i, 1, ("a",), ("p",)) for i in range(4)]
    assert [m.rows for m in ms] == [(0,), (0,), (1,), (1,)]
    assert [m.vals for m in ms] == [(0,), (1,), (0,), (1,)]
    assert all(m.worlds == ("w0",) for m in ms)


def test_decode_rejects_indices_outside_the_space():
    # 2 bits at 1 world / 1 agent / 1 atom
    for idx in (-1, 4, 2**40):
        with pytest.raises(KripkitError) as e:
            decode_model(idx, 1, ("a",), ("p",))
        assert e.value.code == "index-out-of-range"


def test_model_bits():
    assert model_bits(1, 1, 1) == 2
    assert model_bits(2, 1, 1) == 6
    assert model_bits(2, 2, 2) == 12
    assert model_bits(3, 3, 3) == 36


def test_enumeration_counts_and_order():
    ms = list(enumerate_models(2, ("a",), ("p",)))
    assert len(ms) == 64
    for i, m in enumerate(ms):
        assert model_index(m) == i
        assert m == decode_model(i, 2, ("a",), ("p",))
    # each roster is read once, so iterators work too
    ms = list(enumerate_models(1, iter(["a"]), iter(["p"])))
    assert ms == [decode_model(i, 1, ("a",), ("p",)) for i in range(4)]


def test_codec_matches_documented_layout():
    # 2 worlds / 2 agents / 2 atoms: 12 bits, most significant first,
    # relation (k, u, v) at k*n*n + u*n + v, valuation (t, u) at
    # n*n*nag + t*n + u
    n, agents, atoms = 2, ("a", "b"), ("p", "q")
    B = model_bits(n, 2, 2)
    assert B == 12
    for j in range(B):
        pos = B - 1 - j
        m = decode_model(1 << j, n, agents, atoms)
        rel = {a: m.relation(a) for a in agents}
        val = {t: m.valuation[t] for t in atoms}
        if pos < n * n * len(agents):
            k, rest = divmod(pos, n * n)
            u, v = divmod(rest, n)
            want_rel = {a: frozenset({(u, v)}) if i == k else frozenset()
                        for i, a in enumerate(agents)}
            want_val = {t: frozenset() for t in atoms}
        else:
            t, u = divmod(pos - n * n * len(agents), n)
            want_rel = {a: frozenset() for a in agents}
            want_val = {x: frozenset({f"w{u}"}) if i == t else frozenset()
                        for i, x in enumerate(atoms)}
        assert (rel, val) == (want_rel, want_val), j
        assert model_index(m) == 1 << j


def test_decode_index_round_trip_random():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.randint(1, 4)
        agents = ("a", "b", "c")[:rng.randint(1, 3)]
        atoms = ("p", "q")[:rng.randint(1, 2)]
        idx = rng.randrange(1 << model_bits(n, len(agents), len(atoms)))
        assert model_index(decode_model(idx, n, agents, atoms)) == idx


def test_bounds_validation():
    with pytest.raises(KripkitError) as e:
        SearchBounds(0, ("a",), ("p",))
    assert e.value.code == "bounds-too-large"
    with pytest.raises(KripkitError) as e:
        SearchBounds(2, (), ("p",))
    assert e.value.code == "empty-group"
    # a sample needs at least one draw
    for sample in (0, -3):
        with pytest.raises(KripkitError) as e:
            SearchBounds(1, ("a",), ("p",), sample=sample)
        assert e.value.code == "bounds-too-large"
    # 3 worlds / 3 agents / 3 atoms = 36 bits > exhaustive cap
    with pytest.raises(KripkitError) as e:
        check_validity(Atom("p"), SearchBounds(3, ("a", "b", "c"),
                                               ("p", "q", "r")))
    assert e.value.code == "bounds-too-large"
    # 7 worlds / 3 agents = 147+ bits > sampling cap
    with pytest.raises(KripkitError) as e:
        check_validity(Atom("p"), SearchBounds(7, ("a", "b", "c"),
                                               ("p", "q"), sample=10))
    assert e.value.code == "bounds-too-large"


def test_duplicate_roster_entries_rejected():
    # the model codec refuses the rosters SearchBounds refuses
    for agents, atoms in ((("a", "b", "a"), ("p",)), (("a",), ("p", "p")),
                          (("a", "a"), ())):
        for call in (lambda: SearchBounds(2, agents, atoms),
                     lambda: decode_model(0, 1, agents, atoms),
                     lambda: next(enumerate_models(1, agents, atoms))):
            with pytest.raises(KripkitError) as e:
                call()
            assert e.value.code == "duplicate-roster-entry"


def test_enumerate_models_checks_its_shape_at_the_call():
    # the shape is refused when the iterator is made, before any model
    with pytest.raises(KripkitError) as e:
        enumerate_models(1, ("a", "a"), ())
    assert e.value.code == "duplicate-roster-entry"
    with pytest.raises(KripkitError) as e:
        enumerate_models(0, ("a",), ("p",))
    assert e.value.code == "bounds-too-large"


@pytest.mark.parametrize("sample", [None, 50])
def test_rejected_countermodel_has_a_stable_code(sample, monkeypatch):
    # a kernel that reports a model where the formula holds is caught by
    # the re-verification, in both search modes
    phi = Implies(Atom("p"), Atom("p"))
    monkeypatch.setattr(validity, "run_range",
                        lambda prog, n, start, stop: (0, 0, 1))
    monkeypatch.setattr(validity, "run_one", lambda prog, n, idx: 0)
    with pytest.raises(KripkitError) as e:
        check_validity(phi, SearchBounds(2, ("a",), ("p",), sample=sample))
    assert e.value.code == "countermodel-rejected"


def test_valid_formula_reports_checked_count():
    v = check_validity(Implies(K("a", Atom("p")), K("a", Atom("p"))),
                       SearchBounds(2, ("a",), ("p",)))
    assert v.valid and v.countermodel is None
    assert v.checked == 4 + 64


def test_countermodel_found_and_reverified():
    phi = Implies(Atom("p"), K("a", Atom("p")))
    v = check_validity(phi, SearchBounds(2, ("a",), ("p",)))
    assert not v.valid
    pm = v.countermodel
    assert not satisfies(pm.model, pm.world, phi)
    assert model_index(pm.model) == v.index
    # every 1-world model validates phi; the first failure is the 2-world
    # model with the single edge w1->w0 and p true only at w1
    assert pm.model.n == 2
    assert v.index == 9
    assert pm.world == 1
    assert pm.model.relation("a") == frozenset({(1, 0)})
    assert pm.model.valuation["p"] == frozenset({"w1"})


def test_constants_need_no_atom_in_the_roster():
    v = check_validity(parse("true"), SearchBounds(1, ("a",), ("q",)))
    assert v.valid and v.checked == 4
    v = check_validity(parse("K_a true"), SearchBounds(2, ("a",), ()))
    assert v.valid and v.checked == 18
    v = check_validity(parse("false"), SearchBounds(1, ("a",), ()))
    assert not v.valid and (v.index, v.checked) == (0, 1)


def test_first_countermodel_at_three_worlds_at_the_exhaustive_cap():
    # three worlds that b tells apart from none of pq, p~q and ~pq: no
    # model of fewer than three worlds has them
    phi = parse("~(~K_b ~(p & q) & ~K_b ~(p & ~q) & ~K_b ~(~p & q))")
    agents, atoms = ("a", "b"), ("p", "q")
    assert model_bits(3, 2, 2) == EXHAUSTIVE_BIT_CAP
    v = check_validity(phi, SearchBounds(2, agents, atoms))
    assert v.valid and v.checked == 4112
    v = check_validity(phi, SearchBounds(3, agents, atoms))
    assert not v.valid
    cm = v.countermodel
    assert (v.index, cm.world, v.checked) == (477, 2, 4590)
    assert cm.model == decode_model(477, 3, agents, atoms)
    assert not satisfies(cm.model, cm.world, phi)
    M = O.to_dict(cm.model)
    assert not O.sat(M, M["W"][cm.world], phi)


def test_first_countermodel_is_smallest():
    phi = Implies(Atom("p"), K("a", Atom("p")))
    v = check_validity(phi, SearchBounds(2, ("a",), ("p",)))
    # verify minimality by scanning the space independently
    for n in (1, 2):
        for idx in range(1 << model_bits(n, 1, 1)):
            m = decode_model(idx, n, ("a",), ("p",))
            bad = [w for w in range(n) if not satisfies(m, w, phi)]
            if bad:
                assert (n, idx, bad[0]) == \
                    (v.countermodel.model.n, v.index, v.countermodel.world)
                return
    pytest.fail("no countermodel in scan")


def test_sampled_mode_deterministic():
    phi = Implies(D(frozenset("ab"), Atom("p")), K("a", Atom("p")))
    b1 = SearchBounds(3, ("a", "b"), ("p",), sample=500, seed=9)
    b2 = SearchBounds(3, ("a", "b"), ("p",), sample=500, seed=9)
    assert check_validity(phi, b1) == check_validity(phi, b2)
    # omitted seed behaves as seed 0
    b3 = SearchBounds(3, ("a", "b"), ("p",), sample=200)
    b4 = SearchBounds(3, ("a", "b"), ("p",), sample=200, seed=0)
    assert check_validity(phi, b3) == check_validity(phi, b4)


def test_verdict_digest_is_pinned():
    # (valid, checked, index, world) of 320 random formulas over 1-3 agents
    # and 1-2 atoms, a quarter made valid, each checked exhaustively up to 2
    # worlds and sampled (150 draws up to 3 worlds); sha256 taken on the
    # kernel that memoised node results per (node, frame) within a block
    def key(v):
        world = None if v.countermodel is None else v.countermodel.world
        return v.valid, v.checked, v.index, world

    rng = random.Random(8)
    h, valid = hashlib.sha256(), 0
    for i in range(320):
        agents = ("a", "b", "c")[:rng.randint(1, 3)]
        atoms = ("p", "q")[:rng.randint(1, 2)]
        phi = gen.random_formula(rng, rng.randint(1, 3), atoms, agents)
        if rng.random() < 0.25:
            phi = Or(phi, Not(phi))
        full = check_validity(phi, SearchBounds(2, agents, atoms))
        drawn = check_validity(phi, SearchBounds(3, agents, atoms,
                                                 sample=150, seed=i))
        valid += full.valid
        h.update(repr((key(full), key(drawn))).encode())
    assert valid == 98
    assert h.hexdigest() == \
        "4c12724bf3af02ed5b2ece50acd1865325621d34ababd4c9c0171ced6bf24722"


def test_check_equivalence_is_iff_validity():
    p = Atom("p")
    b = SearchBounds(2, ("a",), ("p",))
    assert check_equivalence(Eee(p), p, b).valid
    assert not check_equivalence(K("a", p), p, b).valid


def test_formula_pool_deterministic_and_bounded():
    pool = formula_pool(2, ("p", "q"), ("a", "b"), limit=241)
    again = formula_pool(2, ("p", "q"), ("a", "b"), limit=241)
    assert pool == again
    assert len(pool) == 241
    assert len(set(pool)) == 241
    kinds = {type(f).__name__ for f in pool}
    assert {"Atom", "Not", "And", "K", "D", "Eee", "See", "Sse"} <= kinds


def test_axiom_instances_counts():
    for schema in SCHEMAS:
        got = axiom_instances(schema, count=200)
        distinct = set(got)
        assert len(distinct) == len(got)
        if schema == "eee-atom":
            assert len(got) == 2  # the whole distinct space at 2 atoms
        elif schema == "see-atom":
            assert len(got) == 8  # ditto at 2 atoms x 4 sender groups
        else:
            assert len(got) >= 200, schema
        if schema == "K_D" or schema == "M_D":
            assert all(isinstance(f, Implies) for f in got)
        elif schema == "G_D":
            assert all(isinstance(f, D) for f in got)
        else:
            # reduction equivalences
            assert all(isinstance(f, Iff) for f in got)


INSTANCE_COUNTS = {
    "K_D": 200, "M_D": 200, "G_D": 200, "eee-atom": 2, "eee-not": 200,
    "eee-and": 200, "eee-D": 200, "see-atom": 8, "see-not": 200,
    "see-and": 200, "see-D": 200, "sse-atom": 200, "sse-not": 200,
    "sse-and": 200, "sse-D": 200,
}


def test_axiom_instance_texts_are_pinned():
    # sha256 over the printed instances of every schema on the default
    # roster, one text a line, in SCHEMAS order; taken when each call
    # built its own pool
    h, counts = hashlib.sha256(), {}
    for schema in SCHEMAS:
        got = axiom_instances(schema)
        counts[schema] = len(got)
        for f in got:
            h.update(print_formula(f).encode() + b"\n")
        assert axiom_instances(schema) == got
        assert axiom_instances(schema, ["p", "q"], ["a", "b"]) == got
    assert counts == INSTANCE_COUNTS
    assert h.hexdigest() == \
        "ecea257d7951b9f9237f300bb4a31bf39101b60c9e067952735a9f6ab9ec294e"


def test_schemas_share_one_pool_per_roster(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return formula_pool(*args, **kwargs)

    validity._pool.cache_clear()
    monkeypatch.setattr(validity, "formula_pool", counted)
    for agents in (("a", "b"), ("a",), ("a", "b")):
        for schema in SCHEMAS:
            axiom_instances(schema, agents=agents)
    assert calls == [(2, ("p", "q"), ("a", "b")), (2, ("p", "q"), ("a",))]


def test_axiom_instances_unknown_schema():
    for count in (200, 0):
        with pytest.raises(KripkitError) as e:
            axiom_instances("nope", count=count)
        assert e.value.code == "unknown-schema"


def test_no_instances_or_formulas_below_one():
    for schema in SCHEMAS:
        for count in (0, -3):
            assert axiom_instances(schema, count=count) == ()
    for limit in (0, -3):
        assert formula_pool(1, ("p",), ("a",), limit=limit) == ()
    assert len(formula_pool(1, ("p",), ("a",))) == 12
    assert len(formula_pool(1, ("p",), ("a",), limit=5)) == 5


def test_schema_soundness_spot_check():
    b = SearchBounds(2, ("a", "b"), ("p", "q"))
    for schema in SCHEMAS:
        for inst in axiom_instances(schema, count=200)[:12]:
            v = check_validity(inst, b)
            assert v.valid, (schema, inst)


def test_inference_rules_preserve_validity():
    b = SearchBounds(2, ("a", "b"), ("p", "q"))
    p, q = Atom("p"), Atom("q")
    theta = Or(p, Not(p))
    assert check_validity(theta, b).valid
    # modus ponens product
    assert check_validity(Implies(theta, Or(theta, q)), b).valid
    assert check_validity(Or(theta, q), b).valid
    # necessitation for the group modality
    for g in ({"a"}, {"a", "b"}):
        assert check_validity(D(frozenset(g), theta), b).valid
    # and under each update
    assert check_validity(Eee(theta), b).valid
    assert check_validity(See(frozenset("a"), theta), b).valid
    assert check_validity(Sse(frozenset("a"), q, theta), b).valid


# -- the exhaustive scan over the agents and atoms a formula reads --


def _key(v):
    return (v.valid, v.index,
            None if v.countermodel is None else v.countermodel.world,
            v.checked)


def _full_scan(phi, bounds):
    """The exhaustive loop over the whole roster's space, size by size."""
    prog = compile_program(phi, bounds.agents, bounds.atoms)
    checked = 0
    for n in range(1, bounds.max_worlds + 1):
        B = model_bits(n, len(bounds.agents), len(bounds.atoms))
        idx, w, cnt = run_range(prog, n, 0, 1 << B)
        checked += cnt
        if idx >= 0:
            return False, idx, w, checked
    return True, None, None, checked


def _assert_restricted_scan_is_full_scan(phi, bounds):
    v = check_validity(phi, bounds)
    assert _key(v) == _full_scan(phi, bounds), (phi, bounds)
    if not v.valid:
        cm = v.countermodel
        M = O.to_dict(cm.model)
        assert not O.sat(M, M["W"][cm.world], phi)
        assert model_index(cm.model) == v.index
        # the scanned space's first failure, widened with the relations of
        # the agents the program does not read left empty
        part = restrict_program(compile_program(phi, bounds.agents,
                                                bounds.atoms))
        for a in bounds.agents:
            if a not in part.agents:
                assert cm.model.relation(a) == frozenset(), (phi, bounds, a)
        assert cm.model == decode_model(v.index, cm.model.n, bounds.agents,
                                        bounds.atoms)
    return v


def test_restricted_scan_equals_full_scan():
    # rosters with names the formula does not read, at 1-2 worlds
    rng = random.Random(10)
    valid = 0
    for _ in range(150):
        agents = tuple(rng.sample("abc", rng.randint(1, 3)))
        atoms = tuple(rng.sample("pqr", rng.randint(1, 3)))
        phi = gen.random_formula(
            rng, rng.randint(1, 3),
            tuple(rng.sample(atoms, rng.randint(1, len(atoms)))),
            tuple(rng.sample(agents, rng.randint(1, len(agents)))))
        if rng.random() < 0.3:
            phi = Or(phi, Not(phi))
        worlds = 2 if model_bits(2, len(agents), len(atoms)) <= 14 else 1
        v = _assert_restricted_scan_is_full_scan(
            phi, SearchBounds(worlds, agents, atoms))
        valid += v.valid
    assert 20 <= valid <= 130


@pytest.mark.parametrize("text, agents, atoms, kept", [
    ("p | ~p", ("a", "b"), ("p", "q"), ()),  # no agent read
    ("K_a true", ("a", "b"), (), ("a",)),  # no atoms
    ("p -> K_b p", ("a", "b"), ("p",), ("b",)),
    # [eee] reads every agent's relation
    ("[eee] K_a p <-> D{a,b} [eee] p", ("a", "b"), ("p", "q"), ("a", "b")),
    ("[eee] p -> K_a q", ("a", "b", "c"), ("p", "q"), ("a", "b", "c")),
    # empty groups read no agent
    ("[see ] p", ("a", "b"), ("p", "q"), ()),
    ("[see ] K_a q -> q", ("a", "b"), ("p", "q"), ("a",)),
    ("[sse | q] p <-> p", ("a", "b"), ("p", "q"), ()),
    ("[sse | r] K_b p", ("a", "b"), ("p", "q", "r"), ("b",)),
])
def test_restricted_scan_named_cases(text, agents, atoms, kept):
    phi = parse(text)
    part = restrict_program(compile_program(phi, agents, atoms))
    assert (part.agents, part.atoms) == (kept, atoms)
    _assert_restricted_scan_is_full_scan(phi, SearchBounds(2, agents, atoms))


@pytest.mark.parametrize("text, atoms", [
    ("K_c p", ("p",)), ("K_a s", ("p",)), ("[see c] p", ("p",)),
    ("[sse a | s] p", ("p", "q")),
])
def test_names_outside_the_roster_are_refused_as_before(text, atoms):
    phi, bounds = parse(text), SearchBounds(2, ("a", "b"), atoms)
    with pytest.raises(KripkitError) as want:
        _full_scan(phi, bounds)
    with pytest.raises(KripkitError) as got:
        check_validity(phi, bounds)
    assert got.value.code == want.value.code
    assert got.value.code in ("unknown-agent", "unknown-atom")


def test_single_agent_schemas_at_the_exhaustive_cap():
    # one instance of each schema that has a single-agent one, over agents
    # a, b and atoms p, q: every size up to 3 worlds (24 index bits, the
    # cap) is covered, 16 + 4,096 + 2**24 models; the eee schemas read both
    # agents at any roster, so their 24-bit scans stay slow
    agents, atoms = ("a", "b"), ("p", "q")
    assert model_bits(3, 2, 2) == EXHAUSTIVE_BIT_CAP
    schemas = [s for s in SCHEMAS if not s.startswith("eee-")]
    assert len(schemas) == 11
    for schema in schemas:
        inst = next(f for f in axiom_instances(schema, agents=("a",))
                    if agents_of(f) == {"a"})
        part = restrict_program(compile_program(inst, agents, atoms))
        assert part.agents == ("a",), schema
        v = check_validity(inst, SearchBounds(3, agents, atoms))
        assert v.valid and v.checked == 16781328, (schema, inst)
