"""Deterministic random generators shared by the test modules."""
import random

from kripkit import Model
from kripkit.formula import (And, Atom, D, Dhat, Eee, Iff, Implies, K, Not,
                             Or, See, Sse)


def random_model(rng: random.Random, max_worlds=4, agents=("a", "b", "c"),
                 atoms=("p", "q")) -> Model:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    rel = {a: {(u, v) for u in worlds for v in worlds if rng.random() < 0.5}
           for a in agents}
    val = {p: {w for w in worlds if rng.random() < 0.5} for p in atoms}
    return Model.build(worlds, agents, atoms, rel, val)


def random_equiv_model(rng: random.Random, max_worlds=4,
                       agents=("a", "b", "c"), atoms=("p", "q")) -> Model:
    """Each agent's relation is the kernel of a random partition."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    rel = {}
    for a in agents:
        block = {w: rng.randrange(n) for w in worlds}
        rel[a] = {(u, v) for u in worlds for v in worlds
                  if block[u] == block[v]}
    val = {p: {w for w in worlds if rng.random() < 0.5} for p in atoms}
    return Model.build(worlds, agents, atoms, rel, val)


def random_formula(rng: random.Random, depth: int, atoms=("p", "q"),
                   agents=("a", "b", "c"), dynamic=True):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    top = 11 if dynamic else 7
    kind = rng.randrange(top)
    sub = lambda: random_formula(rng, depth - 1, atoms, agents, dynamic)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Implies(sub(), sub())
    if kind == 4:
        return Iff(sub(), sub())
    if kind == 5:
        return K(rng.choice(agents), sub())
    if kind == 6:
        g = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
        return D(g, sub())
    if kind == 7:
        return Eee(sub())
    if kind == 8:
        g = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        return See(g, sub())
    if kind == 9:
        g = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        return Sse(g, sub(), sub())
    g = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
    return Dhat(g, sub(), sub())


class CountedName(str):
    """An atom or agent name that fails once it is hashed more than `limit`
    times, so that a walk visiting every occurrence of a shared node fails
    fast instead of running for ever."""
    limit = 8

    def __hash__(self):
        self.uses = getattr(self, "uses", 0) + 1
        assert self.uses <= self.limit, f"{self!r} hashed {self.uses} times"
        return str.__hash__(self)


def doubled(depth):
    """A DAG of depth + 1 objects (plus a 4-node leaf) whose tree has more
    than 2**depth nodes; its names are CountedNames."""
    p, q, b = CountedName("p"), CountedName("q"), CountedName("b")
    f = Sse(frozenset("a"), Atom(p), K(b, Atom(q)))
    for i in range(depth):
        f = (And, Implies)[i % 2](f, f)
    return f
