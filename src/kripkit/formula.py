"""Formula AST, concrete syntax, derived connectives, complexity measures.

Core constructors: Atom, Top, Not, And, D, Eee, See, Sse. Everything else
(Bot, Or, Implies, Iff, K, Dhat) is sugar, rewritten into the core by
core_form, the one rewrite, which builds its output through a target:
_Shared hash-conses the formulas that desugar returns and that one
translation builds; symbols_of reads names off _Names, a _Shared that
interns atoms and groups and builds no node; engine._Compile emits the
program nodes of compile_program.
The measures nsc/ndc treat Or/Implies/Iff as primitive binaries and Dhat as
a primitive so that the reduction bookkeeping stays strictly decreasing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet

from .kripke_core import KripkitError


@dataclass(frozen=True)
class Formula:
    # the cached (ndc, nsc) pair, set per node by _pair; not a field
    _measures_ = None

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


def symbols_of(phi: Formula) -> tuple:
    """(atom names, agent names) mentioned, read off the atoms and groups
    that the walk rewriting phi to its core form interns; it visits each
    node object once and builds no node."""
    t = _Names()
    core_form(phi, t)
    return t.atoms(), t.agents()


def atoms_of(phi: Formula) -> frozenset:
    """Atom names mentioned."""
    return symbols_of(phi)[0]


def agents_of(phi: Formula) -> frozenset:
    return symbols_of(phi)[1]


def desugar(phi: Formula) -> Formula:
    """Rewrite to the core constructors {Atom, Top, Not, And, D, Eee, See,
    Sse}, as a hash-consed DAG: equal subformulas are one object, and each
    node the rewrite builds carries its (ndc, nsc) pair."""
    return core_form(phi, _Shared())


class _Shared:
    """A hash-consing table, core_form's target and translate._step's. A
    node is keyed by its class and the ids of its up to three arguments
    (groups are interned too, a missing argument is None), so no lookup
    hashes a subtree; the table holds its nodes, so no id is reused. Each
    node it builds or Atom or Top it interns has its (ndc, nsc) pair."""

    def __init__(self):
        self.nodes = {}

    def emit(self, cls, x, y=None, z=None):
        key = (cls, id(x), id(y), id(z))
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = (cls(x) if y is None else cls(x, y)
                                     if z is None else cls(x, y, z))
            _pair(got)
        return got

    def atom(self, f):
        got = self.nodes.setdefault(
            (Atom, f.name) if isinstance(f, Atom) else (Top,), f)
        if got._measures_ is None:
            _pair(got)
        return got

    def group(self, g):
        g = frozenset(g)
        return self.nodes.setdefault(g, g)

    def atoms(self) -> frozenset:  # the names of the atoms interned
        return frozenset(f.name for f in self.nodes.values()
                         if type(f) is Atom)

    def agents(self) -> frozenset:  # the agents of the groups interned
        return frozenset().union(
            *(g for g in self.nodes.values() if type(g) is frozenset))


class _Names(_Shared):
    """core_form's target for symbols_of: it interns atoms and groups as
    _Shared does and builds no node, so its table holds only those."""

    def emit(self, cls, x, y=None, z=None):
        # not None, so that core_form's memo marks the node as visited
        return cls


def _imp(t, a, b):
    """a -> b, that is ~(a & ~b), through target t."""
    emit = t.emit
    return emit(Not, emit(And, a, emit(Not, b)))


def _dhat(t, g, chi, psi):
    """(chi -> D_G(chi -> psi)) & (~chi -> D_G(~chi -> psi)) through target
    t; ~chi is emitted at each of its two places, and t may share them."""
    emit = t.emit
    return emit(And, _imp(t, chi, emit(D, g, _imp(t, chi, psi))),
                _imp(t, emit(Not, chi),
                     emit(D, g, _imp(t, emit(Not, chi), psi))))


def core_form(f: Formula, t):
    """The core form of f, built through target t.

    t.emit(cls, *args) makes a core node of class cls (Not, And, D, Eee,
    See or Sse), t.atom(f) makes the node of an Atom or Top and t.group(g)
    the argument of a group. Children are rewritten left to right, a group
    before the child it binds (for Dhat: topic, group, body), so nodes are
    emitted, and errors met, in the order of a walk over the desugared
    formula. Each node object of f is rewritten once.
    """
    try:
        return _core(f, t, {})
    except RecursionError:
        raise _too_deep("rewrite") from None


def _too_deep(what: str) -> KripkitError:
    # the formula is not shown: printing it would recurse as deep again
    return KripkitError("nested-too-deeply", f"formula too deep to {what}")


def _core(f: Formula, t, done: dict):
    """core_form's recursion; done maps the id of each node met, but an
    Atom or Top, to its output, and f keeps those nodes alive."""
    if isinstance(f, (Atom, Top)):
        return t.atom(f)
    got = done.get(id(f))
    if got is not None:
        return got
    emit = t.emit
    if isinstance(f, Not):
        out = emit(Not, _core(f.sub, t, done))
    elif isinstance(f, And):
        out = emit(And, _core(f.left, t, done), _core(f.right, t, done))
    elif isinstance(f, Or):  # ~(~a & ~b)
        out = emit(Not, emit(And, emit(Not, _core(f.left, t, done)),
                             emit(Not, _core(f.right, t, done))))
    elif isinstance(f, Implies):
        out = _imp(t, _core(f.left, t, done), _core(f.right, t, done))
    elif isinstance(f, Iff):  # (a -> b) & (b -> a)
        a, b = _core(f.left, t, done), _core(f.right, t, done)
        out = emit(And, _imp(t, a, b), _imp(t, b, a))
    elif isinstance(f, K):  # D{agent}
        out = emit(D, t.group((f.agent,)), _core(f.sub, t, done))
    elif isinstance(f, D):
        out = emit(D, t.group(f.group), _core(f.sub, t, done))
    elif isinstance(f, Eee):
        out = emit(Eee, _core(f.sub, t, done))
    elif isinstance(f, See):
        out = emit(See, t.group(f.group), _core(f.sub, t, done))
    elif isinstance(f, Sse):
        out = emit(Sse, t.group(f.group), _core(f.topic, t, done),
                   _core(f.sub, t, done))
    elif isinstance(f, Dhat):
        chi = _core(f.topic, t, done)
        out = _dhat(t, t.group(f.group), chi, _core(f.sub, t, done))
    elif isinstance(f, Bot):  # ~Top
        out = emit(Not, t.atom(Top()))
    else:
        raise KripkitError("not-a-formula", repr(f))
    done[id(f)] = out
    return out


# The (ndc, nsc) pair of a node is made once, by _pair from its children's
# pairs, and kept on the node under this one attribute; a second lazily set
# attribute would cost every node a full instance dict. _Shared applies
# _pair to each node it builds and each Atom or Top it interns, so their
# pairs are set from birth; _measures pairs any other node, children first.
# Equal pairs are shared through _PAIRS (one entry per distinct pair, a few
# hundred over hundreds of stacked-update translations), so the cache adds
# no tuple per node. Construction, equality and hashing are untouched:
# the attribute is not a dataclass field. Formula declares it as None, so
# reading an unset pair is a plain attribute read that does not raise.
_MEASURES = "_measures_"
_PAIRS: dict = {}


def _pair(phi: Formula) -> tuple:
    """phi's (ndc, nsc), made by its class's rule from its children's pairs,
    which it reads as set, and cached on phi."""
    t = type(phi)
    if t is Not or t is D or t is K:
        d, s = phi.sub._measures_
        pair = (d, 1 + s)
    elif t is And or t is Or or t is Implies or t is Iff:
        d1, s1 = phi.left._measures_
        d2, s2 = phi.right._measures_
        pair = (d1 if d1 > d2 else d2, 1 + (s1 if s1 > s2 else s2))
    elif t is Eee or t is See:
        d, s = phi.sub._measures_
        pair = (1 + d, 2 * s)
    elif t is Sse:
        dt, st = phi.topic._measures_
        ds, ss = phi.sub._measures_
        pair = (1 + dt + ds, (8 + st) * ss)
    elif t is Dhat:
        dt, _ = phi.topic._measures_
        ds, ss = phi.sub._measures_
        pair = (max(dt, ds), 7 + ss)
    elif t is Atom or t is Top:
        pair = (0, 1)
    elif t is Bot:
        pair = (0, 2)  # measures its desugared form ~Top
    else:
        raise KripkitError("not-a-formula", repr(phi))
    pair = _PAIRS.setdefault(pair, pair)
    object.__setattr__(phi, _MEASURES, pair)
    return pair


def _measures(phi: Formula) -> tuple:
    """(ndc, nsc) of phi: its cached pair, else _pair applied to each node
    below it that has none, children first, from an explicit stack, so that
    no depth of nesting recurses."""
    got = getattr(phi, _MEASURES, None)
    if got is not None:
        return got
    if not isinstance(phi, Formula):
        raise KripkitError("not-a-formula", repr(phi))
    todo = [phi]
    while todo:
        f = todo[-1]
        if f._measures_ is not None:  # a shared node, measured meanwhile
            todo.pop()
            continue
        subs = [v for v in vars(f).values()
                if isinstance(v, Formula) and v._measures_ is None]
        if subs:
            todo += subs
            continue
        todo.pop()
        try:
            _pair(f)
        except AttributeError:  # a child that is not a formula
            raise KripkitError("not-a-formula", repr(f)) from None
    return phi._measures_


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
    """Lexicographic (ndc, nsc) strict order; a cached pair is read without
    a call."""
    return ((getattr(phi1, _MEASURES, None) or _measures(phi1))
            > (getattr(phi2, _MEASURES, None) or _measures(phi2)))


# -- concrete syntax --

# one token after optional whitespace; the alternatives are tried in order
_TOKEN_RE = re.compile(r"""\s*(
    K_[a-z][a-z0-9_]*
  | Dhat(?=\{) | D(?=\{)
  | <-> | ->
  | [~&|(){}\[\],]
  | [a-z][a-z0-9_]*
)""", re.VERBOSE)
_SPACE_RE = re.compile(r"\s*")

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5

# the one precedence table, read by both parse and print_formula:
# infix connective type -> (symbol, precedence, right-associative)
_INFIX = {Iff: (" <-> ", _PREC_IFF, True), Implies: (" -> ", _PREC_IMP, True),
          Or: (" | ", _PREC_OR, False), And: (" & ", _PREC_AND, False)}
_PREC = {t: prec for t, (_, prec, _) in _INFIX.items()}
# token -> (type, precedence, right-associative)
_BINARY = {symbol.strip(): (t, prec, right)
           for t, (symbol, prec, right) in _INFIX.items()}


def _tokenize(text: str):
    """(kind, value) pairs, ending with ("eof", ""); a K_agent token has
    the agent as its value, and every other token but an identifier is its
    own kind.

    findall skips what no token matches, so the text is tokenized exactly
    when the tokens make up all of it but its whitespace."""
    toks = _TOKEN_RE.findall(text)
    if "".join(toks) != "".join(text.split()):
        pos = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        pos = _SPACE_RE.match(text, pos).end()
        raise KripkitError("syntax-error",
                           f"position {pos}: unexpected character {text[pos]!r}")
    out = []
    for t in toks:
        if t[:2] == "K_":
            out.append(("kop", t[2:]))
        elif t[0].islower():
            out.append(("ident", t))
        else:
            out.append((t, t))
    out.append(("eof", ""))
    return out


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

    def error(self, code, message, i=None):
        """KripkitError at token i (by default the last one taken), with
        its position in the text, found only here."""
        if i is None:
            i = self.i - 1
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        pos = starts[i] if i < len(starts) else len(self.text)
        return KripkitError(code, f"position {pos}: {message}")

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise self.error("syntax-error",
                             f"expected {kind!r}, got {t[1]!r}")
        return t

    def formula(self, prec=_PREC_IFF) -> Formula:
        """A formula whose binary connectives bind at precedence prec or
        tighter (precedence climbing over _BINARY)."""
        out = self.unary()
        while True:
            op = _BINARY.get(self.peek()[0])
            if op is None or op[1] < prec:
                return out
            t, p, right_assoc = op
            self.next()
            out = t(out, self.formula(p if right_assoc else p + 1))

    def agent_list(self):
        agents = []
        if self.peek()[0] == "ident":
            agents.append(self.next()[1])
            while self.peek()[0] == ",":
                self.next()
                agents.append(self.expect("ident")[1])
        return frozenset(agents)

    def unary(self) -> Formula:
        at = self.i
        kind, value = self.toks[at]
        if kind == "~":
            self.next()
            return Not(self.unary())
        if kind == "kop":
            self.next()
            return K(value, self.unary())
        if kind == "D":
            self.next()
            self.expect("{")
            g = self.agent_list()
            self.expect("}")
            if not g:
                raise self.error("empty-group", "D{} is not a modality", at)
            return D(g, self.unary())
        if kind == "Dhat":
            self.next()
            self.expect("{")
            g = self.agent_list()
            if not g:
                raise self.error("empty-group", "Dhat{} is not a modality",
                                 at)
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
            raise self.error("syntax-error", f"unknown operator [{op[1]}]")
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
        raise self.error("syntax-error", f"expected a formula, got {t[1]!r}")


def parse(text: str) -> Formula:
    p = _Parser(text)
    try:
        out = p.formula()
    except RecursionError:
        raise KripkitError("syntax-error",
                           "formula nested too deeply") from None
    t = p.peek()
    if t[0] != "eof":
        raise p.error("syntax-error", f"trailing input {t[1]!r}", p.i)
    return out


def _group_str(g) -> str:
    return ",".join(sorted(g))


def print_formula(phi: Formula) -> str:
    """Canonical string; parse(print_formula(x)) == x.

    Each node object is printed once per call, so a shared formula prints in
    time linear in its distinct nodes plus the length of the string.
    """
    try:
        return _print(phi, {})
    except RecursionError:
        raise _too_deep("print") from None


def _print(phi: Formula, memo: dict) -> str:
    # memo: id of a node -> its string; the root keeps every node alive
    t = type(phi)
    if t is Atom:
        return phi.name
    got = memo.get(id(phi))
    if got is not None:
        return got
    if t in _INFIX:
        symbol, prec, right_assoc = _INFIX[t]
        left, right = phi.left, phi.right
        ls, rs = _print(left, memo), _print(right, memo)
        # the side the connective associates to keeps parens only below its
        # precedence, the other side also at equal precedence
        lp = _PREC.get(type(left), _PREC_UNARY)
        rp = _PREC.get(type(right), _PREC_UNARY)
        if lp < prec or (lp == prec and right_assoc):
            ls = f"({ls})"
        if rp < prec or (rp == prec and not right_assoc):
            rs = f"({rs})"
        out = ls + symbol + rs
    elif t is Top:
        out = "true"
    elif t is Bot:
        out = "false"
    else:
        if t is Not:
            head = "~"
        elif t is K:
            head = f"K_{phi.agent} "
        elif t is D:
            head = f"D{{{_group_str(phi.group)}}} "
        elif t is Eee:
            head = "[eee] "
        elif t is See:
            head = f"[see {_group_str(phi.group)}] "
        elif t is Sse:
            head = (f"[sse {_group_str(phi.group)} | "
                    f"{_print(phi.topic, memo)}] ")
        elif t is Dhat:
            head = (f"Dhat{{{_group_str(phi.group)} | "
                    f"{_print(phi.topic, memo)}}} ")
        else:
            raise KripkitError("not-a-formula", repr(phi))
        sub = phi.sub
        out = _print(sub, memo)
        if type(sub) in _PREC:
            out = f"({out})"
        out = head + out
    memo[id(phi)] = out
    return out
