"""The benchmark's three workloads: seeded inputs, the timed op, the check.

Every input is generated from the seed and handed to the op as formula text;
the op parses it, so parsing is part of what is timed. Inputs are laid out as
repeated rounds of a fixed mix of classes (schemas, refutation families,
formula shapes) whose members the seed draws. Any prefix of the op list then
holds nearly the same mix, so runs of different length and seed measure the
same thing.
"""
from __future__ import annotations

import hashlib
import importlib
import random
from types import SimpleNamespace

import kripkit
from kripkit import (SCHEMAS, And, Atom, D, Eee, Iff, Implies, K, Model, Not,
                     Or, SearchBounds, See, Sse, axiom_instances, ndc,
                     print_formula, serialize_model)

ROUNDS = 200  # op lists cycle after this many rounds (1,000-6,606 ops)


def library_api() -> SimpleNamespace:
    """The public functions the ops call. Ops look them up here, so that a
    traced run can time the benchmark's own calls without touching `src/`."""
    return SimpleNamespace(
        parse=kripkit.parse,
        print_formula=kripkit.print_formula,
        check_validity=kripkit.check_validity,
        translate_traced=kripkit.translate_traced,
        truth_mask=kripkit.truth_mask,
    )


def trace_sites(api: SimpleNamespace) -> list:
    """(owner, attribute, span name, count hook) for every timed function.

    Library-internal calls are timed at the module whose globals the caller
    reads them from; recursive calls inside a function stay untimed.
    """
    engine = importlib.import_module("kripkit.engine")
    semantics = importlib.import_module("kripkit.semantics")
    translate = importlib.import_module("kripkit.translate")
    validity = importlib.import_module("kripkit.validity")

    def trace_steps(tracer, result):
        tracer.count("translate.trace_steps", len(result[1]))

    def program_nodes(tracer, prog):
        tracer.count("engine.program_nodes", prog.n_nodes)

    def models(tracer, result):
        tracer.count("engine.run_range.models", result[2])

    def countermodels(tracer, verdict):
        tracer.count("validity.countermodels", 0 if verdict.valid else 1)

    return [
        (api, "parse", "formula.parse", None),
        (engine, "desugar", "formula.desugar", None),
        (translate, "desugar", "formula.desugar", None),
        (translate, "c_greater", "formula.c_greater", None),
        (api, "print_formula", "formula.print_formula", None),
        (api, "translate_traced", "translate.translate_traced", trace_steps),
        (validity, "compile_program", "engine.compile_program", program_nodes),
        (validity, "run_range", "engine.run_range", models),
        (validity, "run_one", "engine.run_one", None),
        (api, "check_validity", "validity.check_validity", countermodels),
        (validity, "decode_model", "validity.decode_model", None),
        (validity, "satisfies", "semantics.satisfies", None),
        (api, "truth_mask", "semantics.truth_mask", None),
        (semantics, "truth_mask", "semantics.truth_mask", None),
    ]


TRACED_FUNCTIONS = (
    "formula.parse", "formula.desugar", "formula.c_greater",
    "formula.print_formula", "translate.translate_traced",
    "engine.compile_program", "engine.run_range", "engine.run_one",
    "validity.check_validity", "validity.decode_model",
    "semantics.satisfies", "semantics.truth_mask",
)
TRACED_COUNTS = (
    "translate.trace_steps", "translate.output_nodes", "engine.program_nodes",
    "engine.run_range.models", "validity.countermodels",
)


def fingerprint(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _subset(rng, agents, nonempty=True):
    while True:
        s = frozenset(a for a in agents if rng.random() < 0.5)
        if s or not nonempty:
            return s


def _literal(rng, atoms):
    a = Atom(rng.choice(atoms))
    return Not(a) if rng.random() < 0.5 else a


# -- axiom-sweep --

AXIOM_BOUNDS = SearchBounds(2, ("a", "b"), ("p", "q"))
AXIOM_MODELS = 4112  # 2^4 one-world plus 2^12 two-world models


class AxiomSweep:
    """Every schema instance is valid, so each op scans all 4,112 models."""

    name = "axiom-sweep"
    prefix = 0
    round_len = len(SCHEMAS)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        per_schema = []
        for schema in SCHEMAS:
            texts = [print_formula(f) for f in axiom_instances(schema)]
            rng.shuffle(texts)
            per_schema.append(texts)
        return [texts[r % len(texts)]
                for r in range(ROUNDS) for texts in per_schema]

    def texts(self, op):
        return [op]

    def run(self, api, op):
        return api.check_validity(api.parse(op), AXIOM_BOUNDS)

    def check(self, op, verdict):
        if not verdict.valid:
            return f"countermodel at index {verdict.index}"
        if verdict.checked != AXIOM_MODELS:
            return f"checked {verdict.checked} models"
        return None

    def models(self, op, verdict):
        return verdict.checked

    def layer_counts(self, op, verdict):
        return {}


# -- refute --

CUBE_AGENTS = ("a", "b", "c")
CUBE_ATOMS = ("m_a", "m_b", "m_c")
CUBE2 = SearchBounds(2, CUBE_AGENTS, CUBE_ATOMS)


def _pinned():
    """The criterion-6 cases with their (index, world, checked) witnesses."""
    ma, mb, mc, p = Atom("m_a"), Atom("m_b"), Atom("m_c"), Atom("p")
    chi_a = Or(K("a", ma), K("a", Not(ma)))
    chi_b = Or(K("b", mb), K("b", Not(mb)))
    chi_c = Or(K("c", mc), K("c", Not(mc)))
    chi_or = Or(Or(chi_a, chi_b), chi_c)
    abc, ab, bc = frozenset("abc"), frozenset("ab"), frozenset("bc")
    cube3 = SearchBounds(3, CUBE_AGENTS, CUBE_ATOMS, sample=40000, seed=0)
    pair = SearchBounds(2, ("a", "b"), ("p",))
    moore = Not(K("b", p))
    return (
        (Implies(Sse(abc, chi_or, Sse(abc, chi_or, chi_a)),
                 Sse(abc, chi_or, chi_a)), cube3, (49188665098, 0, 705)),
        (Implies(Sse(frozenset("a"), chi_a, Sse(bc, chi_c, chi_c)),
                 Sse(bc, chi_c, Sse(frozenset("a"), chi_a, chi_c))),
         CUBE2, (50129, 1, 50194)),
        (Implies(Sse(ab, chi_or, Sse(frozenset("c"), chi_or, chi_a)),
                 Sse(abc, chi_or, chi_a)), cube3, (49188665098, 0, 705)),
        (Implies(Sse(abc, chi_a, Sse(abc, chi_c, chi_b)),
                 Sse(abc, And(chi_a, chi_c), chi_b)),
         CUBE2, (53013, 1, 53078)),
        (Implies(D(ab, moore), See(ab, K("a", moore))), pair, (77, 1, 86)),
        (Implies(D(ab, moore), Eee(K("a", moore))), pair, (77, 1, 86)),
    )


def _contingent(rng):
    """A binary connective over literals of two distinct atoms.

    Some valuation makes it false and some true, which makes every
    refutation family below non-valid, whatever the groups. Its fixed size
    keeps the program, and so the time per model, the same across draws.
    """
    x, y = rng.sample(CUBE_ATOMS, 2)
    lits = [Atom(x), Atom(y)]
    lits = [Not(a) if rng.random() < 0.5 else a for a in lits]
    return rng.choice((And, Or, Implies))(*lits)


def _group(rng, cls):
    """A random nonempty agent group, or the one agent `cls`.

    The first failing index grows with the agent whose edges a countermodel
    needs (agent a's relation bits are the index's most significant), so
    the agent sets where an exhaustive op stops. A single agent, rather than
    one with others added at random, keeps the cost of the ops that set p95
    within a narrow range from draw to draw.
    """
    if cls is None:
        return _subset(rng, CUBE_AGENTS)
    return frozenset(cls)


def _proper_pair(rng):
    """Groups (S, G) with S not inside G, so [see S] changes the G-edges."""
    while True:
        s, g = _subset(rng, CUBE_AGENTS), _subset(rng, CUBE_AGENTS)
        if not s <= g:
            return s, g


def _m_d_reversed(rng, cls):
    while True:
        big = _subset(rng, CUBE_AGENTS)
        if len(big) >= 2:
            break
    small = _subset(rng, sorted(big))
    while small == big:
        small = _subset(rng, sorted(big))
    f = _contingent(rng)
    return Implies(D(big, f), D(small, f))


def _see_d_without_s(rng, cls):
    s, g = _proper_pair(rng)
    f = _contingent(rng)
    return Iff(See(s, D(g, f)), D(g, See(s, f)))


def _sse_d_without_dhat(rng, cls):
    s, g = _proper_pair(rng)
    chi, f = _contingent(rng), _contingent(rng)
    return Iff(Sse(s, chi, D(g, f)), D(s | g, Sse(s, chi, f)))


def _eee_d_without_roster(rng, cls):
    g = _subset(rng, CUBE_AGENTS)
    while len(g) == 3:
        g = _subset(rng, CUBE_AGENTS)
    f = _contingent(rng)
    return Iff(Eee(D(g, f)), D(g, Eee(f)))


def _t_d(rng, cls):
    g, f = _group(rng, cls), _contingent(rng)
    return Implies(D(g, f), f)


def _four_d(rng, cls):
    g, f = _group(rng, cls), _contingent(rng)
    return Implies(D(g, f), D(g, D(g, f)))


def _five_d(rng, cls):
    g, f = _group(rng, cls), _contingent(rng)
    return Implies(Not(D(g, f)), D(g, Not(D(g, f))))


def _b_d(rng, cls):
    g, f = _group(rng, cls), _contingent(rng)
    return Implies(f, D(g, Not(D(g, Not(f)))))


# One round of refutation ops: (family, sampled?, group class). Exhaustive ops
# on the 4_D/5_D/B_D families need two-world countermodels; their group class
# (the group is that one agent) spreads the first failure from about 200
# models (class c) through 2.2e3 (class b) to about 3.3e4 (class a). 4_D with
# G = {a} first fails near 1e5 models and is left out.
#
# The 13 cheap ops (first failure within the first 60 models, under 2 ms on
# the pure kernel) and the 10 ops above 5 ms balance around a cluster of 10
# ops of class c (193-233 models, 3-5 ms), so the median op lies inside that
# cluster and not in a gap between clusters. The two class-a ops are 6% of a
# round, so p95 lies inside them.
_CHEAP_REFUTE = (
    (_m_d_reversed, False, None), (_see_d_without_s, False, None),
    (_sse_d_without_dhat, False, None), (_eee_d_without_roster, False, None),
    (_t_d, False, None),
    (_m_d_reversed, True, None), (_see_d_without_s, True, None),
    (_sse_d_without_dhat, True, None), (_eee_d_without_roster, True, None),
    (_t_d, True, None), (_four_d, True, None), (_five_d, True, None),
    (_b_d, True, None),
)
_MID_REFUTE = ((_five_d, False, "c"), (_b_d, False, "c")) * 5
_LATE_REFUTE = (
    (_four_d, False, "c"), (_four_d, False, "b"),
    (_five_d, False, "b"), (_b_d, False, "b"),
    (_five_d, False, "b"), (_b_d, False, "b"),
    (_five_d, False, "b"), (_b_d, False, "b"),
    (_five_d, False, "a"), (_b_d, False, "a"),
)
REFUTE_SLOTS = _CHEAP_REFUTE + _MID_REFUTE + _LATE_REFUTE


def _bounds_text(b):
    return (f"max_worlds={b.max_worlds} agents={','.join(b.agents)} "
            f"atoms={','.join(b.atoms)} sample={b.sample} seed={b.seed}")


class Refute:
    """Non-valid formulas: early exits, sampled draws and countermodels.

    The six pinned cases open the list, so every run measures each once.
    """

    name = "refute"
    prefix = 6
    round_len = len(REFUTE_SLOTS)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = [(print_formula(phi), bounds, pin)
               for phi, bounds, pin in _pinned()]
        for _ in range(ROUNDS):
            for family, sampled, cls in REFUTE_SLOTS:
                phi = family(rng, cls)
                bounds = (SearchBounds(3, CUBE_AGENTS, CUBE_ATOMS,
                                       sample=40000,
                                       seed=rng.randrange(1 << 31))
                          if sampled else CUBE2)
                ops.append((print_formula(phi), bounds, None))
        return ops

    def texts(self, op):
        return [op[0], _bounds_text(op[1])]

    def run(self, api, op):
        phi = api.parse(op[0])
        return phi, api.check_validity(phi, op[1])

    def check(self, op, result):
        phi, verdict = result
        if verdict.valid:
            return "no countermodel found"
        cm = verdict.countermodel
        if kripkit.satisfies(cm.model, cm.world, phi):
            return f"countermodel at index {verdict.index} satisfies the formula"
        pin = op[2]
        got = (verdict.index, cm.world, verdict.checked)
        if pin is not None and got != pin:
            return f"witness {got}, pinned {pin}"
        return None

    def models(self, op, result):
        return result[1].checked

    def layer_counts(self, op, result):
        return {}


# -- translate-check --

PAIR_AGENTS = ("a", "b")
PAIR_ATOMS = ("p", "q")
README_EXAMPLE = "[sse a | p] [sse b | q] [sse a,b | p & q] D{a,b} (p -> [see a] K_b q)"
TRUTH_MODELS = 2  # explicit models per op
MAX_WORLDS = 5

_BINARY = (And, Or, Implies)


def _part(rng, kind):
    """A topic or D body: a literal, a literal pair, or one with K."""
    lit = _literal(rng, PAIR_ATOMS)
    if kind == "lit":
        return lit
    if kind == "bin":
        return rng.choice(_BINARY)(lit, _literal(rng, PAIR_ATOMS))
    if kind == "K":
        return K(rng.choice(PAIR_AGENTS), lit)
    return rng.choice(_BINARY)(lit, K(rng.choice(PAIR_AGENTS),
                                      _literal(rng, PAIR_ATOMS)))  # "binK"


# One round of translation ops, as shapes (updates, of which [sse], topic
# kind, body kind). The trace grows with the [sse] count and with the K
# operators below them; the filter keeps #sse + #K <= 4, which bounds a
# trace near 2e4 steps. Some draws with #sse + #K = 7 passed 4.8e5 steps.
# Cheap shapes (about 1 ms) are two thirds of a round, so that the median
# op lies inside one dense cluster of times. The four heavy ones (traces of
# 1.2e4-1.8e4 steps) are 8% of a round, so that p95 lies inside them.
_CHEAP = ((2, 0, None, "bin"), (3, 0, None, "binK"), (4, 0, None, "bin"),
          (2, 1, "lit", "bin"))
_MID = ((3, 1, "K", "binK"), (4, 1, "bin", "lit"), (2, 2, "bin", "bin"),
        (3, 2, "lit", "binK"), (4, 2, "K", "lit"), (3, 3, "lit", "bin"),
        (4, 3, "bin", "lit"))
_HEAVY = (3, 3, "bin", "binK")
TRANSLATE_SHAPES = (_CHEAP * 4 + _MID + (_HEAVY,) * 2) * 2


MAX_SHAPE_WEIGHT = 4


def shape_weight(shape) -> int:
    """#sse plus the K operators in the topics and the body."""
    updates, sse, topic, body = shape
    k = {"K": 1, "binK": 1}
    return sse + sse * k.get(topic, 0) + k.get(body, 0)


def _stacked(rng, shape):
    updates, sse, topic, body = shape
    f = D(_subset(rng, PAIR_AGENTS), _part(rng, body))
    at = set(rng.sample(range(updates), sse))
    for i in reversed(range(updates)):
        if i in at:
            f = Sse(_subset(rng, PAIR_AGENTS, nonempty=False),
                    _part(rng, topic), f)
        elif rng.random() < 0.5:
            f = Eee(f)
        else:
            f = See(_subset(rng, PAIR_AGENTS, nonempty=False), f)
    return f


def _model(rng):
    n = rng.randint(1, MAX_WORLDS)
    worlds = tuple(f"w{i}" for i in range(n))
    rel = {a: {(u, v) for u in worlds for v in worlds if rng.random() < 0.5}
           for a in PAIR_AGENTS}
    val = {p: {w for w in worlds if rng.random() < 0.5} for p in PAIR_ATOMS}
    return Model.build(worlds, PAIR_AGENTS, PAIR_ATOMS, rel, val)


class TranslateCheck:
    """Stacked updates rewritten to the static language and checked for
    equivalence on explicit models; no kernel call."""

    name = "translate-check"
    prefix = 0
    round_len = 1 + len(TRANSLATE_SHAPES)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(ROUNDS // 5):
            texts = [README_EXAMPLE] + [print_formula(_stacked(rng, s))
                                        for s in TRANSLATE_SHAPES]
            for text in texts:
                ops.append((text, tuple(_model(rng)
                                        for _ in range(TRUTH_MODELS))))
        return ops

    def texts(self, op):
        return [op[0]] + [serialize_model(m) for m in op[1]]

    def run(self, api, op):
        phi = api.parse(op[0])
        out, trace = api.translate_traced(phi, agents=PAIR_AGENTS)
        printed = api.print_formula(out)
        masks = [(api.truth_mask(m, phi), api.truth_mask(m, out))
                 for m in op[1]]
        return out, trace, printed, masks

    def check(self, op, result):
        out, trace, printed, masks = result
        if ndc(out) != 0:
            return "translation is not static"
        for m, (before, after) in zip(op[1], masks):
            if before != after:
                return f"truth masks differ on a {m.n}-world model"
        return None

    def models(self, op, result):
        return len(op[1])

    def layer_counts(self, op, result):
        return {"translate.output_nodes": node_count(result[0])}


def node_count(phi) -> int:
    count, todo = 0, [phi]
    while todo:
        f = todo.pop()
        count += 1
        todo.extend(v for v in vars(f).values() if isinstance(v, kripkit.Formula))
    return count


WORKLOADS = {w.name: w for w in (AxiomSweep(), Refute(), TranslateCheck())}
