"""Bounded validity: exhaustive or sampled countermodel search.

Models of a fixed shape (n worlds, the given agent and atom rosters) are
identified with bit indices; engine documents the layout and holds its codec.
Exhaustive mode walks sizes 1..max_worlds in index order, so the first
countermodel found is minimal in (size, index, world). Every countermodel
reported by the engine is re-checked against the reference semantics before
it is returned, and one it rejects raises countermodel-rejected.

Exhaustive mode compiles over the full roster, so unknown names, duplicate
entries and the bit cap are decided on it, and then scans the program
restricted to the agents it reads (engine.restrict_program). Its first
failure, widened to the full roster with the other agents' relations
empty, is the first failure a scan of the full space would give; the
engine docstring says why. checked counts the models of the full space
that the index order covers up to the first failure (all 2**B of a size
with none), not the models the kernel evaluated.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .engine import (compile_program, decode_index, model_bits, model_index,
                     restrict_program, run_one, run_range)
from .formula import (And, Atom, D, Dhat, Eee, Formula, Iff, Implies, K, Not,
                      Or, See, Sse)
from .kripke_core import KripkitError, Model, PointedModel, check_distinct
from .semantics import satisfies

EXHAUSTIVE_BIT_CAP = 24
# An arbitrary limit on the index bits of sampled models. The kernel and the
# codec take indices of any width (Python ints); the cap is kept so that the
# bounds accepted and refused stay the same.
SAMPLE_BIT_CAP = 62


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    agents: tuple
    atoms: tuple
    sample: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if self.max_worlds < 1:
            raise KripkitError("bounds-too-large", "max_worlds must be >= 1")
        if self.sample is not None and self.sample < 1:
            raise KripkitError("bounds-too-large", "sample must be >= 1")
        if not self.agents:
            raise KripkitError("empty-group", "agent roster is empty")
        check_distinct("agent", self.agents)
        check_distinct("atom", self.atoms)


@dataclass(frozen=True)
class Verdict:
    valid: bool
    checked: int
    countermodel: Optional[PointedModel] = None
    index: Optional[int] = None


def decode_model(idx: int, n: int, agents, atoms) -> Model:
    """The model at index idx over worlds w0..w{n-1}; model_index inverts it."""
    agents = tuple(agents)
    atoms = tuple(atoms)
    rows, vals = decode_index(idx, n, len(agents), len(atoms))
    worlds = tuple(f"w{i}" for i in range(n))
    return Model(worlds, agents, atoms, rows, vals)


def _widen(model: Model, agents: tuple) -> Model:
    """model over the roster agents, which holds model's agents in the same
    order: every other agent's relation is empty."""
    n = model.n
    rows = {a: model.rows[k * n:(k + 1) * n]
            for k, a in enumerate(model.agents)}
    empty = (0,) * n
    return Model(model.worlds, agents, model.atoms,
                 tuple(r for a in agents for r in rows.get(a, empty)),
                 model.vals)


def enumerate_models(n: int, agents, atoms):
    """All models of the given shape, in index order."""
    agents, atoms = tuple(agents), tuple(atoms)
    B = model_bits(n, len(agents), len(atoms))
    for idx in range(1 << B):
        yield decode_model(idx, n, agents, atoms)


def _reverified(phi: Formula, model: Model, w: int) -> PointedModel:
    if satisfies(model, w, phi):
        raise KripkitError(
            "countermodel-rejected",
            "engine countermodel rejected by the reference semantics")
    return PointedModel(model, w)


def check_validity(phi: Formula, bounds: SearchBounds) -> Verdict:
    prog = compile_program(phi, bounds.agents, bounds.atoms)
    nag, nat = len(bounds.agents), len(bounds.atoms)
    top = model_bits(bounds.max_worlds, nag, nat)
    cap, mode = ((EXHAUSTIVE_BIT_CAP, "exhaustive") if bounds.sample is None
                 else (SAMPLE_BIT_CAP, "sampling"))
    if top > cap:
        raise KripkitError(
            "bounds-too-large",
            f"{top} index bits at {bounds.max_worlds} worlds exceeds "
            f"the {mode} cap of {cap}")

    if bounds.sample is None:
        part = restrict_program(prog)
        checked = 0
        for n in range(1, bounds.max_worlds + 1):
            B = model_bits(n, len(part.agents), len(part.atoms))
            idx, w, _ = run_range(part, n, 0, 1 << B)
            if idx >= 0:
                model = _widen(decode_model(idx, n, part.agents, part.atoms),
                               bounds.agents)
                idx = model_index(model)
                return Verdict(False, checked + idx + 1,
                               _reverified(phi, model, w), idx)
            checked += 1 << model_bits(n, nag, nat)
        return Verdict(True, checked)

    rng = random.Random(0 if bounds.seed is None else bounds.seed)
    for draw in range(bounds.sample):
        n = rng.randint(1, bounds.max_worlds)
        B = model_bits(n, nag, nat)
        idx = rng.randrange(1 << B)
        w = run_one(prog, n, idx)
        if w >= 0:
            model = decode_model(idx, n, bounds.agents, bounds.atoms)
            return Verdict(False, draw + 1, _reverified(phi, model, w), idx)
    return Verdict(True, bounds.sample)


def check_equivalence(phi: Formula, psi: Formula, bounds: SearchBounds) -> Verdict:
    return check_validity(Iff(phi, psi), bounds)


# -- axiom schemas --

def _subsets(agents, nonempty):
    agents = tuple(agents)
    out = []
    for m in range(1 if nonempty else 0, 1 << len(agents)):
        out.append(frozenset(a for i, a in enumerate(agents) if (m >> i) & 1))
    return out


def formula_pool(depth: int, atoms, agents, limit: Optional[int] = None) -> tuple:
    """Deterministic pool of formulas up to the given modal/connective depth."""
    atoms = tuple(atoms)
    agents = tuple(agents)
    groups = _subsets(agents, nonempty=True)
    sgroups = _subsets(agents, nonempty=False)
    pool = [Atom(t) for t in atoms]
    seen = set(pool)

    def add(f):
        if f not in seen:
            seen.add(f)
            pool.append(f)

    prev_end = 0
    for _ in range(depth):
        base = list(pool)
        fresh = base[prev_end:]
        prev_end = len(base)
        for f in fresh:
            add(Not(f))
            for ag in agents:
                add(K(ag, f))
            for g in groups:
                add(D(g, f))
            add(Eee(f))
            for s in sgroups:
                add(See(s, f))
        for f in fresh:
            for g in base:
                add(And(f, g))
                add(Or(f, g))
                add(Implies(f, g))
                if limit is not None and len(pool) >= 4 * limit:
                    break
            for s in sgroups:
                for t in atoms:
                    add(Sse(s, f, Atom(t)))
            if limit is not None and len(pool) >= 4 * limit:
                break
    return tuple(pool if limit is None else pool[:max(limit, 0)])


SCHEMAS = ("K_D", "M_D", "G_D",
           "eee-atom", "eee-not", "eee-and", "eee-D",
           "see-atom", "see-not", "see-and", "see-D",
           "sse-atom", "sse-not", "sse-and", "sse-D")


def _pairs(pool):
    P = len(pool)
    for k in range(1, P):
        for i in range(P):
            yield pool[i], pool[(i + k) % P]


def _cycle(seq):
    while True:
        yield from seq


def axiom_instances(schema: str, atoms=("p", "q"), agents=("a", "b"),
                    count: int = 200) -> tuple:
    """Up to `count` distinct instances of the named schema; none when
    count < 1.

    The atom cases of the broadcast reductions have tiny instance spaces
    (one per atom, times sender subsets); those return the whole space.
    """
    if schema not in SCHEMAS:
        raise KripkitError("unknown-schema", schema)
    if count < 1:
        return ()
    atoms = tuple(atoms)
    agents = tuple(agents)
    roster = frozenset(agents)
    groups = _subsets(agents, nonempty=True)
    sgroups = _subsets(agents, nonempty=False)
    # a prime pool size keeps the cycled zips from collapsing onto a short orbit
    pool = formula_pool(2, atoms, agents, limit=241)

    def gen():
        if schema == "K_D":
            for (f, g), G in zip(_pairs(pool), _cycle(groups)):
                yield Implies(D(G, Implies(f, g)),
                              Implies(D(G, f), D(G, g)))
        elif schema == "M_D":
            incl = [(G, G2) for G in groups for G2 in groups if G <= G2]
            for f, (G, G2) in zip(_cycle(pool), _cycle(incl)):
                yield Implies(D(G, f), D(G2, f))
        elif schema == "G_D":
            taut = []
            for f, g in islice(_pairs(pool), 4 * count):
                taut.append(Or(f, Not(f)))
                taut.append(Implies(f, f))
                taut.append(Implies(And(f, g), f))
                taut.append(Implies(f, Implies(g, f)))
                taut.append(Implies(And(f, Implies(f, g)), g))
            for th, G in zip(taut, _cycle(groups)):
                yield D(G, th)
        elif schema == "eee-atom":
            for t in atoms:
                yield Iff(Eee(Atom(t)), Atom(t))
        elif schema == "eee-not":
            for f in pool:
                yield Iff(Eee(Not(f)), Not(Eee(f)))
        elif schema == "eee-and":
            for f, g in _pairs(pool):
                yield Iff(Eee(And(f, g)), And(Eee(f), Eee(g)))
        elif schema == "eee-D":
            for f, G in zip(_cycle(pool), _cycle(groups)):
                yield Iff(Eee(D(G, f)), D(roster, Eee(f)))
        elif schema == "see-atom":
            for S in sgroups:
                for t in atoms:
                    yield Iff(See(S, Atom(t)), Atom(t))
        elif schema == "see-not":
            for f, S in zip(_cycle(pool), _cycle(sgroups)):
                yield Iff(See(S, Not(f)), Not(See(S, f)))
        elif schema == "see-and":
            for (f, g), S in zip(_pairs(pool), _cycle(sgroups)):
                yield Iff(See(S, And(f, g)), And(See(S, f), See(S, g)))
        elif schema == "see-D":
            for f, S, G in zip(_cycle(pool), _cycle(sgroups), _cycle(groups)):
                yield Iff(See(S, D(G, f)), D(S | G, See(S, f)))
        elif schema == "sse-atom":
            for chi, S, t in zip(_cycle(pool), _cycle(sgroups), _cycle(atoms)):
                yield Iff(Sse(S, chi, Atom(t)), Atom(t))
        elif schema == "sse-not":
            for (chi, f), S in zip(_pairs(pool), _cycle(sgroups)):
                yield Iff(Sse(S, chi, Not(f)), Not(Sse(S, chi, f)))
        elif schema == "sse-and":
            for (f, g), chi, S in zip(_pairs(pool), _cycle(pool), _cycle(sgroups)):
                yield Iff(Sse(S, chi, And(f, g)),
                          And(Sse(S, chi, f), Sse(S, chi, g)))
        elif schema == "sse-D":
            for (chi, f), S, G in zip(_pairs(pool), _cycle(sgroups), _cycle(groups)):
                body = Sse(S, chi, f)
                yield Iff(Sse(S, chi, D(G, f)),
                          And(D(S | G, body), Dhat(G, chi, body)))

    out, seen = [], set()
    # generators over cycled parameter lists are infinite; bound the scan
    for inst in islice(gen(), max(8 * count, 4000)):
        if inst not in seen:
            seen.add(inst)
            out.append(inst)
            if len(out) >= count:
                break
    return tuple(out)
