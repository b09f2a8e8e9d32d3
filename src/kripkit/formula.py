"""Formula AST, concrete syntax, derived connectives, complexity measures.

Core constructors: Atom, Not, And, D, Eee, See, Sse. Everything else
(Top, Bot, Or, Implies, Iff, K, Dhat) desugars into the core. The measures
nsc/ndc treat Or/Implies/Iff as primitive binaries and Dhat as a primitive
so that the reduction bookkeeping stays strictly decreasing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet

from .kripke_core import KripkitError


@dataclass(frozen=True)
class Formula:
    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    agent: str
    sub: Formula


def _freeze_group(g) -> FrozenSet[str]:
    return g if isinstance(g, frozenset) else frozenset(g)


@dataclass(frozen=True)
class D(Formula):
    group: FrozenSet[str]
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", _freeze_group(self.group))
        if not self.group:
            raise KripkitError("empty-group", "D needs a nonempty group")


@dataclass(frozen=True)
class Eee(Formula):
    sub: Formula


@dataclass(frozen=True)
class See(Formula):
    group: FrozenSet[str]
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", _freeze_group(self.group))


@dataclass(frozen=True)
class Sse(Formula):
    group: FrozenSet[str]
    topic: Formula
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", _freeze_group(self.group))


@dataclass(frozen=True)
class Dhat(Formula):
    group: FrozenSet[str]
    topic: Formula
    sub: Formula

    def __post_init__(self):
        object.__setattr__(self, "group", _freeze_group(self.group))
        if not self.group:
            raise KripkitError("empty-group", "Dhat needs a nonempty group")


@dataclass(frozen=True)
class Complexity:
    nsc: int
    ndc: int


# witness atom for the desugared `false`; p & ~p is unsatisfiable whatever
# the model assigns to p
_WITNESS = Atom("p")


def symbols_of(phi: Formula) -> tuple:
    """(atom names, agent names) mentioned, in one walk over the formula.

    Atoms are collected before desugaring, so the Bot witness is not counted.
    """
    atoms, agents = set(), set()
    todo = [phi]
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            atoms.add(f.name)
        elif isinstance(f, Not):
            todo.append(f.sub)
        elif isinstance(f, (And, Or, Implies, Iff)):
            todo += (f.left, f.right)
        elif isinstance(f, K):
            agents.add(f.agent)
            todo.append(f.sub)
        elif isinstance(f, (D, See)):
            agents.update(f.group)
            todo.append(f.sub)
        elif isinstance(f, Eee):
            todo.append(f.sub)
        elif isinstance(f, (Sse, Dhat)):
            agents.update(f.group)
            todo += (f.topic, f.sub)
    return frozenset(atoms), frozenset(agents)


def atoms_of(phi: Formula) -> frozenset:
    """Atom names mentioned (before desugaring; the Bot witness not counted)."""
    return symbols_of(phi)[0]


def agents_of(phi: Formula) -> frozenset:
    return symbols_of(phi)[1]


def desugar(phi: Formula) -> Formula:
    """Rewrite to the core constructors {Atom, Not, And, D, Eee, See, Sse}."""
    if isinstance(phi, Atom):
        return phi
    if isinstance(phi, Bot):
        return And(_WITNESS, Not(_WITNESS))
    if isinstance(phi, Top):
        return Not(And(_WITNESS, Not(_WITNESS)))
    if isinstance(phi, Not):
        return Not(desugar(phi.sub))
    if isinstance(phi, And):
        return And(desugar(phi.left), desugar(phi.right))
    if isinstance(phi, Or):
        return Not(And(Not(desugar(phi.left)), Not(desugar(phi.right))))
    if isinstance(phi, Implies):
        return Not(And(desugar(phi.left), Not(desugar(phi.right))))
    if isinstance(phi, Iff):
        a, b = desugar(phi.left), desugar(phi.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(phi, K):
        return D(frozenset([phi.agent]), desugar(phi.sub))
    if isinstance(phi, D):
        return D(phi.group, desugar(phi.sub))
    if isinstance(phi, Eee):
        return Eee(desugar(phi.sub))
    if isinstance(phi, See):
        return See(phi.group, desugar(phi.sub))
    if isinstance(phi, Sse):
        return Sse(phi.group, desugar(phi.topic), desugar(phi.sub))
    if isinstance(phi, Dhat):
        chi, sub = desugar(phi.topic), desugar(phi.sub)
        return desugar(And(Implies(chi, D(phi.group, Implies(chi, sub))),
                           Implies(Not(chi), D(phi.group, Implies(Not(chi), sub)))))
    raise TypeError(type(phi))


# The (ndc, nsc) pair of a node is computed once, from its children's
# pairs, and kept on the node under this one attribute; a second lazily set
# attribute would cost every node a full instance dict. Equal pairs are
# shared through _PAIRS (one entry per distinct pair, a few hundred over
# hundreds of stacked-update translations), so the cache adds no tuple per
# node. Construction, equality and hashing are untouched: the attribute is
# not a dataclass field.
_MEASURES = "_measures_"
_PAIRS: dict = {}


def _measures(phi: Formula) -> tuple:
    """(ndc, nsc) of phi, cached on each node."""
    got = getattr(phi, _MEASURES, None)
    if got is not None:
        return got
    if isinstance(phi, Atom):
        pair = (0, 1)
    elif isinstance(phi, Bot):
        pair = (0, 3)  # measures its desugared form p & ~p
    elif isinstance(phi, Top):
        pair = (0, 4)
    elif isinstance(phi, (Not, K, D)):
        d, s = _measures(phi.sub)
        pair = (d, 1 + s)
    elif isinstance(phi, (And, Or, Implies, Iff)):
        d1, s1 = _measures(phi.left)
        d2, s2 = _measures(phi.right)
        pair = (max(d1, d2), 1 + max(s1, s2))
    elif isinstance(phi, (Eee, See)):
        d, s = _measures(phi.sub)
        pair = (1 + d, 2 * s)
    elif isinstance(phi, Sse):
        dt, st = _measures(phi.topic)
        ds, ss = _measures(phi.sub)
        pair = (1 + dt + ds, (8 + st) * ss)
    elif isinstance(phi, Dhat):
        dt, _ = _measures(phi.topic)
        ds, ss = _measures(phi.sub)
        pair = (max(dt, ds), 7 + ss)
    else:
        raise TypeError(type(phi))
    pair = _PAIRS.setdefault(pair, pair)
    object.__setattr__(phi, _MEASURES, pair)
    return pair


def nsc(phi: Formula) -> int:
    """Nested static complexity."""
    return _measures(phi)[1]


def ndc(phi: Formula) -> int:
    """Nested dynamic complexity; 0 iff the desugared formula is static."""
    return _measures(phi)[0]


def complexity(phi: Formula) -> Complexity:
    d, s = _measures(phi)
    return Complexity(nsc=s, ndc=d)


def c_greater(phi1: Formula, phi2: Formula) -> bool:
    """Lexicographic (ndc, nsc) strict order."""
    return _measures(phi1) > _measures(phi2)


def ssub(phi: Formula) -> frozenset:
    """Strict subformulas, per the termination lemma's clauses."""
    if isinstance(phi, (Atom, Top, Bot)):
        return frozenset()
    if isinstance(phi, Not):
        return frozenset([phi.sub]) | ssub(phi.sub)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return frozenset([phi.left, phi.right]) | ssub(phi.left) | ssub(phi.right)
    if isinstance(phi, (K, D, Eee, See)):
        return frozenset([phi.sub]) | ssub(phi.sub)
    if isinstance(phi, (Sse, Dhat)):
        return (frozenset([phi.topic, phi.sub])
                | ssub(phi.topic) | ssub(phi.sub))
    raise TypeError(type(phi))


# -- concrete syntax --

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<kop>K_(?P<kagent>[a-z][a-z0-9_]*))
  | (?P<dhat>Dhat(?=\{))
  | (?P<dop>D(?=\{))
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<sym>[~&|(){}\[\],])
  | (?P<ident>[a-z][a-z0-9_]*)
""", re.VERBOSE)

_KEYWORDS = {"true", "false"}


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise KripkitError("syntax-error",
                               f"position {pos}: unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            kind = m.lastgroup
            val = m.group()
            if kind == "kop":
                toks.append(("kop", m.group("kagent"), pos))
            elif kind == "sym":
                toks.append((val, val, pos))
            else:
                toks.append((kind, val, pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise KripkitError("syntax-error",
                               f"position {t[2]}: expected {kind!r}, got {t[1]!r}")
        return t

    def fail(self, msg):
        t = self.peek()
        raise KripkitError("syntax-error", f"position {t[2]}: {msg}")

    # precedence: <-> < -> < | < & < unary
    def formula(self) -> Formula:
        left = self.implication()
        if self.peek()[0] == "iff":
            self.next()
            return Iff(left, self.formula())  # right-assoc
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "imp":
            self.next()
            return Implies(left, self.implication())  # right-assoc
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "|":
            self.next()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def agent_list(self):
        agents = []
        if self.peek()[0] == "ident":
            agents.append(self.next()[1])
            while self.peek()[0] == ",":
                self.next()
                agents.append(self.expect("ident")[1])
        return frozenset(agents)

    def unary(self) -> Formula:
        t = self.peek()
        kind = t[0]
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "kop":
            self.next()
            return K(t[1], self.unary())
        if kind == "dop":
            self.next()
            self.expect("{")
            g = self.agent_list()
            self.expect("}")
            if not g:
                raise KripkitError("empty-group",
                                   f"position {t[2]}: D{{}} is not a modality")
            return D(g, self.unary())
        if kind == "dhat":
            self.next()
            self.expect("{")
            g = self.agent_list()
            if not g:
                raise KripkitError("empty-group",
                                   f"position {t[2]}: Dhat{{}} is not a modality")
            self.expect("|")
            chi = self.formula()
            self.expect("}")
            return Dhat(g, chi, self.unary())
        if kind == "[":
            self.next()
            op = self.expect("ident")
            if op[1] == "eee":
                self.expect("]")
                return Eee(self.unary())
            if op[1] == "see":
                g = self.agent_list()
                self.expect("]")
                return See(g, self.unary())
            if op[1] == "sse":
                g = self.agent_list()
                self.expect("|")
                chi = self.formula()
                self.expect("]")
                return Sse(g, chi, self.unary())
            raise KripkitError("syntax-error",
                               f"position {op[2]}: unknown operator [{op[1]}]")
        return self.primary()

    def primary(self) -> Formula:
        t = self.next()
        kind = t[0]
        if kind == "ident":
            if t[1] == "true":
                return Top()
            if t[1] == "false":
                return Bot()
            return Atom(t[1])
        if kind == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        raise KripkitError("syntax-error",
                           f"position {t[2]}: expected a formula, got {t[1]!r}")


def parse(text: str) -> Formula:
    p = _Parser(text)
    out = p.formula()
    t = p.peek()
    if t[0] != "eof":
        raise KripkitError("syntax-error",
                           f"position {t[2]}: trailing input {t[1]!r}")
    return out


_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def _prec(phi: Formula) -> int:
    if isinstance(phi, Iff):
        return _PREC_IFF
    if isinstance(phi, Implies):
        return _PREC_IMP
    if isinstance(phi, Or):
        return _PREC_OR
    if isinstance(phi, And):
        return _PREC_AND
    return _PREC_UNARY


def _group_str(g) -> str:
    return ",".join(sorted(g))


def print_formula(phi: Formula) -> str:
    """Canonical string; parse(print_formula(x)) == x."""

    def wrap(sub, minimum):
        s = print_formula(sub)
        return f"({s})" if _prec(sub) < minimum else s

    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bot):
        return "false"
    if isinstance(phi, Not):
        return "~" + wrap(phi.sub, _PREC_UNARY)
    if isinstance(phi, And):
        # left-assoc: right child keeps parens at equal precedence
        r = print_formula(phi.right)
        if _prec(phi.right) <= _PREC_AND:
            r = f"({r})"
        return f"{wrap(phi.left, _PREC_AND)} & {r}"
    if isinstance(phi, Or):
        r = print_formula(phi.right)
        if _prec(phi.right) <= _PREC_OR:
            r = f"({r})"
        return f"{wrap(phi.left, _PREC_OR)} | {r}"
    if isinstance(phi, Implies):
        # right-assoc: left child needs parens at equal precedence
        l = print_formula(phi.left)
        l = f"({l})" if _prec(phi.left) <= _PREC_IMP else l
        return f"{l} -> {wrap(phi.right, _PREC_IMP)}"
    if isinstance(phi, Iff):
        l = print_formula(phi.left)
        l = f"({l})" if _prec(phi.left) <= _PREC_IFF else l
        return f"{l} <-> {wrap(phi.right, _PREC_IFF)}"
    if isinstance(phi, K):
        return f"K_{phi.agent} " + wrap(phi.sub, _PREC_UNARY)
    if isinstance(phi, D):
        return f"D{{{_group_str(phi.group)}}} " + wrap(phi.sub, _PREC_UNARY)
    if isinstance(phi, Dhat):
        return (f"Dhat{{{_group_str(phi.group)} | {print_formula(phi.topic)}}} "
                + wrap(phi.sub, _PREC_UNARY))
    if isinstance(phi, Eee):
        return "[eee] " + wrap(phi.sub, _PREC_UNARY)
    if isinstance(phi, See):
        return f"[see {_group_str(phi.group)}] " + wrap(phi.sub, _PREC_UNARY)
    if isinstance(phi, Sse):
        return (f"[sse {_group_str(phi.group)} | {print_formula(phi.topic)}] "
                + wrap(phi.sub, _PREC_UNARY))
    raise TypeError(type(phi))
