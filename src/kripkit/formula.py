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
from dataclasses import dataclass, fields
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
    """A hash-consing table, core_form's target and translate._clause's. A
    node is keyed by its class and the ids of its up to three arguments
    (groups are interned too, a missing argument is None), so no lookup
    hashes a subtree; the table holds its nodes, so no id is reused.

    A missing node is built in one call together with its (ndc, nsc) pair:
    its fields are set in field order, as the dataclass __init__ sets them,
    and its pair is made by _rule from its children's pairs. A group
    argument arrives as a frozenset interned by group(), so the __init__'s
    freezing is not needed; an empty D or Dhat group still raises. Each
    node it builds or Atom or Top it interns has its pair."""

    def __init__(self):
        self.nodes = {}

    def emit(self, cls, x, y=None, z=None):
        key = (cls, id(x), id(y), id(z))
        got = self.nodes.get(key)
        if got is None:
            if not x and (cls is D or cls is Dhat):
                raise KripkitError("empty-group",
                                   f"{cls.__name__} needs a nonempty group")
            got = self.nodes[key] = _new(cls)
            names = _FIELDS[cls]
            _set(got, names[0], x)
            if y is not None:
                _set(got, names[1], y)
                if z is not None:
                    _set(got, names[2], z)
            pair = _rule(cls, x, y, z)
            _set(got, _MEASURES, _PAIRS.setdefault(pair, pair))
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
    """core_form's recursion; done maps the id of each node met to its
    output, and f keeps those nodes alive. The case is picked by the type
    of f, the commonest first."""
    got = done.get(id(f))
    if got is not None:
        return got
    c = type(f)
    emit = t.emit
    if c is Atom or c is Top:
        out = t.atom(f)
    elif c is Not:
        out = emit(Not, _core(f.sub, t, done))
    elif c is And:
        out = emit(And, _core(f.left, t, done), _core(f.right, t, done))
    elif c is D:
        out = emit(D, t.group(f.group), _core(f.sub, t, done))
    elif c is Implies:
        out = _imp(t, _core(f.left, t, done), _core(f.right, t, done))
    elif c is Or:  # ~(~a & ~b)
        out = emit(Not, emit(And, emit(Not, _core(f.left, t, done)),
                             emit(Not, _core(f.right, t, done))))
    elif c is Iff:  # (a -> b) & (b -> a)
        a, b = _core(f.left, t, done), _core(f.right, t, done)
        out = emit(And, _imp(t, a, b), _imp(t, b, a))
    elif c is K:  # D{agent}
        out = emit(D, t.group((f.agent,)), _core(f.sub, t, done))
    elif c is See:
        out = emit(See, t.group(f.group), _core(f.sub, t, done))
    elif c is Sse:
        out = emit(Sse, t.group(f.group), _core(f.topic, t, done),
                   _core(f.sub, t, done))
    elif c is Eee:
        out = emit(Eee, _core(f.sub, t, done))
    elif c is Dhat:
        chi = _core(f.topic, t, done)
        out = _dhat(t, t.group(f.group), chi, _core(f.sub, t, done))
    elif c is Bot:  # ~Top
        out = emit(Not, t.atom(Top()))
    else:
        raise KripkitError("not-a-formula", repr(f))
    done[id(f)] = out
    return out


# The (ndc, nsc) pair of a node is made once, by _rule from its children's
# pairs, and kept on the node under this one attribute; a second lazily set
# attribute would cost every node a full instance dict. _Shared sets the
# pair of each node as it builds it and of each Atom or Top it interns, so
# their pairs are set from birth; _measures pairs any other node, children
# first. Equal pairs are shared through _PAIRS (one entry per distinct pair,
# a few hundred over hundreds of stacked-update translations), so the cache
# adds no tuple per node. Construction, equality and hashing are untouched:
# the attribute is not a dataclass field. Formula declares it as None, so
# reading an unset pair is a plain attribute read that does not raise.
_MEASURES = "_measures_"
_PAIRS: dict = {}
_new = object.__new__
_set = object.__setattr__
# class the table builds -> its field names, in the order __init__ sets them
_FIELDS = {c: tuple(f.name for f in fields(c))
           for c in (Not, And, D, Eee, See, Sse, Dhat)}


def _rule(c, x=None, y=None, z=None) -> tuple:
    """The (ndc, nsc) pair of the node c(x, y, z), by c's rule from the
    pairs its formula arguments carry; the commonest classes first."""
    if c is And or c is Or or c is Implies or c is Iff:
        d1, s1 = x._measures_
        d2, s2 = y._measures_
        return (d1 if d1 > d2 else d2, 1 + (s1 if s1 > s2 else s2))
    if c is Not:
        d, s = x._measures_
        return (d, 1 + s)
    if c is D or c is K:
        d, s = y._measures_
        return (d, 1 + s)
    if c is See:
        d, s = y._measures_
        return (1 + d, 2 * s)
    if c is Eee:
        d, s = x._measures_
        return (1 + d, 2 * s)
    if c is Sse:
        dt, st = y._measures_
        ds, ss = z._measures_
        return (1 + dt + ds, (8 + st) * ss)
    if c is Dhat:
        dt, _ = y._measures_
        ds, ss = z._measures_
        return (max(dt, ds), 7 + ss)
    if c is Atom or c is Top:
        return (0, 1)
    if c is Bot:
        return (0, 2)  # measures its desugared form ~Top
    raise KripkitError("not-a-formula", repr(c))


def _pair(phi: Formula) -> tuple:
    """phi's (ndc, nsc) by _rule over its fields, whose pairs it reads as
    set, cached on phi."""
    pair = _rule(type(phi), *vars(phi).values())
    pair = _PAIRS.setdefault(pair, pair)
    _set(phi, _MEASURES, pair)
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


def _tokenize(text: str) -> list:
    """The tokens of text as strings in reverse order, the end-of-input
    token "" first, so that a parser takes the next token with pop() and
    looks at it with [-1].

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
    toks.append("")
    toks.reverse()
    return toks


def _shown(tok: str) -> str:
    """A token as error messages show it: a K_agent token as its agent."""
    return tok[2:] if tok[:2] == "K_" else tok


class _Parser:
    """One parse: the tokens not yet taken, in reverse order (see _tokenize),
    and a table of the nodes built, keyed by the text of an atom or constant
    and otherwise by class, group or agent and the ids of the children, so
    that equal subformulas are one object. The table holds its nodes, so no id
    is reused.

    A token is classified where it is read: an identifier starts with a
    lowercase letter, a K_agent token with "K_", and every other token is
    compared as it stands, the end of input being "". A prefix operator
    recurses once per level (unary) and a parenthesis twice (formula and
    unary)."""
    __slots__ = ("text", "toks", "n", "nodes")

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.n = len(self.toks)
        self.nodes = {}

    def error(self, code, message, left=None):
        """KripkitError at the token that has `left` tokens from it to the
        end of input, itself included (by default the last one taken), with
        its position in the text, found only here."""
        i = self.n - (len(self.toks) + 1 if left is None else left)
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        pos = starts[i] if i < len(starts) else len(self.text)
        return KripkitError(code, f"position {pos}: {message}")

    def expect(self, tok):
        t = self.toks.pop()
        if t != tok:
            raise self.error("syntax-error",
                             f"expected {tok!r}, got {_shown(t)!r}")

    def ident(self) -> str:
        t = self.toks.pop()
        if not t[:1].islower():
            raise self.error("syntax-error",
                             f"expected 'ident', got {_shown(t)!r}")
        return t

    def agents(self) -> frozenset:
        toks = self.toks
        if not toks[-1][:1].islower():
            return frozenset()
        agents = [toks.pop()]
        while toks[-1] == ",":
            toks.pop()
            agents.append(self.ident())
        return frozenset(agents)

    def node(self, key, cls, *args) -> Formula:
        """The node of key in the table, built as cls(*args) on first use."""
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = cls(*args)
        return got

    def formula(self, prec=_PREC_IFF) -> Formula:
        """A formula whose binary connectives bind at precedence prec or
        tighter (precedence climbing over _BINARY)."""
        out = self.unary()
        toks = self.toks
        op = _BINARY.get(toks[-1])
        while op is not None and op[1] >= prec:
            toks.pop()
            t, p, right_assoc = op
            rhs = self.formula(p if right_assoc else p + 1)
            out = self.node((t, id(out), id(rhs)), t, out, rhs)
            op = _BINARY.get(toks[-1])
        return out

    def unary(self) -> Formula:
        toks, nodes = self.toks, self.nodes
        t = toks.pop()
        got = nodes.get(t)
        if got is not None:  # an atom or constant read before
            return got
        if t[:1].islower():
            out = nodes[t] = (Top() if t == "true" else
                              Bot() if t == "false" else Atom(t))
            return out
        if t == "~":
            sub = self.unary()
            return self.node((Not, id(sub)), Not, sub)
        if t == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if t[:2] == "K_":
            sub = self.unary()
            return self.node((K, t, id(sub)), K, t[2:], sub)
        if t == "D":
            left = len(toks) + 1
            self.expect("{")
            g = self.agents()
            self.expect("}")
            if not g:
                raise self.error("empty-group", "D{} is not a modality", left)
            sub = self.unary()
            return self.node((D, g, id(sub)), D, g, sub)
        if t == "Dhat":
            left = len(toks) + 1
            self.expect("{")
            g = self.agents()
            if not g:
                raise self.error("empty-group", "Dhat{} is not a modality",
                                 left)
            self.expect("|")
            chi = self.formula()
            self.expect("}")
            sub = self.unary()
            return self.node((Dhat, g, id(chi), id(sub)), Dhat, g, chi, sub)
        if t == "[":
            op = self.ident()
            if op == "eee":
                self.expect("]")
                sub = self.unary()
                return self.node((Eee, id(sub)), Eee, sub)
            if op == "see":
                g = self.agents()
                self.expect("]")
                sub = self.unary()
                return self.node((See, g, id(sub)), See, g, sub)
            if op == "sse":
                g = self.agents()
                self.expect("|")
                chi = self.formula()
                self.expect("]")
                sub = self.unary()
                return self.node((Sse, g, id(chi), id(sub)), Sse, g, chi, sub)
            raise self.error("syntax-error", f"unknown operator [{op}]")
        raise self.error("syntax-error",
                         f"expected a formula, got {_shown(t)!r}")


def parse(text: str) -> Formula:
    """The formula text denotes; equal subformulas are one object."""
    p = _Parser(text)
    try:
        out = p.formula()
    except RecursionError:
        raise KripkitError("syntax-error",
                           "formula nested too deeply") from None
    t = p.toks[-1]
    if t:
        raise p.error("syntax-error", f"trailing input {_shown(t)!r}",
                      len(p.toks))
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
