"""Reduction of dynamic formulas to the static language.

The input's core form (formula.core_form) is rewritten clause by clause.
Every recursive call must strictly decrease the lexicographic (ndc, nsc)
measure; a call that would not raises measure-violation. The result is a
static core formula and the rewrite is idempotent on its output.

One table per call (formula._Shared, as in desugar) builds every formula
met, so equal formulas are one object, and sets the (ndc, nsc) pair of
each node as it builds it, so a measure check reads pairs already made.
Each formula is translated once: its step is recorded once, each of its
calls is checked once, and a repeat shares its result. The trace holds
each distinct step once. A plain recursion records a step's calls' steps
right after it, so the flat trace it would record is built from the
distinct steps on first read. The output is a DAG.

The rewrite clauses form one table, _clause, which picks a clause by the
class of a formula and returns its name, the formulas it calls for and a
finisher that builds its result from their translations; no step makes a
generator. dyn-dyn is the one clause whose second call depends on its
first call's translation, so its finisher appends that call. The clauses
run from one explicit stack: under CPython 3.11 a deep recursion frees
and faults in frame-stack memory as it unwinds, at a cost that depends on
the caller's depth.
"""
from __future__ import annotations

from typing import NamedTuple

from .formula import (And, Atom, D, Dhat, Eee, Formula, Not, See, Sse, Top,
                      _dhat, _measures, _Shared, c_greater, core_form)
# not called here; kbench's trace sites read it as translate.desugar
from .formula import desugar  # noqa: F401
from .kripke_core import KripkitError


class TraceStep(NamedTuple):
    formula: Formula
    clause: str
    calls: tuple
    result: Formula


class TranslationTrace:
    """The steps a plain recursion would record, each distinct one held
    once: `distinct` maps the id of each translated formula to its step,
    in the order the steps finished, so each comes after its calls' steps
    and the root's is last. The flat `steps` tuple is built on first read.
    """

    def __init__(self, distinct: dict):
        self._distinct = distinct
        self._flat = None

    @property
    def steps(self) -> tuple:
        if self._flat is None:
            # the root's step, then the flat trace of each call in turn
            distinct, flat = self._distinct, []
            todo = [next(reversed(distinct.values()))]
            while todo:
                step = todo.pop()
                flat.append(step)
                todo += [distinct[id(g)] for g in reversed(step.calls)]
            self._flat = tuple(flat)
        return self._flat

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        size = {}  # id of a formula -> length of its flat trace
        for key, step in self._distinct.items():
            size[key] = n = 1 + sum(size[id(g)] for g in step.calls)
        return n


def translate(phi: Formula, agents=None) -> Formula:
    return translate_traced(phi, agents)[0]


def translate_traced(phi: Formula, agents=None):
    """Returns (static formula, TranslationTrace).

    agents: full roster, needed when a distributed modality sits under the
    everything-broadcast; inferred from the formula when omitted.
    """
    table = _Shared()
    core = core_form(phi, table)
    mentioned = table.agents()
    if agents is None:
        roster = mentioned
    else:
        roster = frozenset(agents)
        if not mentioned <= roster:
            missing = ", ".join(sorted(mentioned - roster))
            raise KripkitError("unknown-agent",
                               f"formula mentions agents outside roster: {missing}")
    result, distinct = _tau(core, roster, table)
    # a clause's result is built by the table, so it carries its pair
    d = (result._measures_ or _measures(result))[0]
    if d != 0:
        raise KripkitError("measure-violation",
                           f"translation of {phi} is not static: its "
                           f"result has ndc {d}")
    return result, TranslationTrace(distinct)


def _tau(phi: Formula, roster, table: _Shared):
    """(translation of phi, its distinct steps as TranslationTrace takes
    them)."""
    distinct = {}  # id of a formula -> its step, in the order they finish
    stack = []  # (formula, clause, calls, their results, finisher)
    g = phi
    while True:
        got = distinct.get(id(g))
        if got is None:
            clause, calls, finish = _clause(g, roster, table)
            stack.append((g, clause, calls, [], finish))
        else:
            stack[-1][3].append(got.result)
        while stack:
            f, clause, calls, results, finish = stack[-1]
            i = len(results)
            if i == len(calls):
                result = finish(table, f, calls, results)
                if i == len(calls):  # no call was added: f is translated
                    stack.pop()
                    distinct[id(f)] = TraceStep(f, clause, tuple(calls),
                                                result)
                    if stack:
                        stack[-1][3].append(result)
                    continue
            g = calls[i]
            if not c_greater(f, g):
                raise KripkitError("measure-violation",
                                   "no (ndc, nsc) decrease from ndc "
                                   f"{_measures(f)[0]} to {_measures(g)[0]}")
            break
        else:
            return result, distinct


def _rewrap(t, op: Formula, sub: Formula) -> Formula:
    c = type(op)
    if c is Eee:
        return t.emit(Eee, sub)
    if c is See:
        return t.emit(See, op.group, sub)
    return t.emit(Sse, op.group, op.topic, sub)


# Finishers: each builds a clause's result through target t from f, the
# formulas it called for and their translations r, in the same order.
def _itself(t, f, calls, r):
    return f


def _first(t, f, calls, r):
    return r[0]


def _not(t, f, calls, r):
    return t.emit(Not, r[0])


def _and(t, f, calls, r):
    return t.emit(And, r[0], r[1])


def _dist(t, f, calls, r):
    return t.emit(D, f.group, r[0])


def _dhat_of(t, f, calls, r):
    # expand around the two already-reduced components; the expansion
    # itself is static, so no further call on it
    return _dhat(t, f.group, r[0], r[1])


def _dyn_dyn(t, f, calls, r):
    if len(r) == 1:  # the inner update is translated: call for f over it
        calls.append(_rewrap(t, f, r[0]))
        return None
    return r[1]


def _clause(f: Formula, roster, t):
    """The rewrite clause on f: (its name, the formulas it calls for, its
    finisher). The finisher is called once the calls are translated and
    builds f's translation from theirs; dyn-dyn's finisher, given its first
    call's translation, instead appends its second call. f is a core form,
    so its class and its children's are core classes. Every formula a
    clause makes is built through target t."""
    c = type(f)
    if c is Eee or c is See or c is Sse:
        inner = f.sub
        i = type(inner)
        if i is Atom or i is Top:
            return "dyn-atom", [inner], _first
        emit = t.emit
        if i is Not:
            return "dyn-not", [emit(Not, _rewrap(t, f, inner.sub))], _first
        if i is And:
            return "dyn-and", [emit(And, _rewrap(t, f, inner.left),
                                    _rewrap(t, f, inner.right))], _first
        if i is D:
            if c is Eee:
                if not roster:
                    raise KripkitError("empty-group",
                                       "roster needed to push D past [eee]")
                return "eee-dist", [emit(D, t.group(roster),
                                         emit(Eee, inner.sub))], _first
            if c is See:
                return "see-dist", [emit(D, t.group(f.group | inner.group),
                                         emit(See, f.group, inner.sub))], \
                    _first
            moved = emit(Sse, f.group, f.topic, inner.sub)
            both = emit(And, emit(D, t.group(f.group | inner.group), moved),
                        emit(Dhat, inner.group, f.topic, moved))
            return "sse-dist", [both], _first
        if i is Eee or i is See or i is Sse:
            return "dyn-dyn", [inner], _dyn_dyn
    elif c is And:
        return "and", [f.left, f.right], _and
    elif c is Not:
        return "not", [f.sub], _not
    elif c is Atom or c is Top:
        return "atom", [], _itself
    elif c is D:
        return "dist", [f.sub], _dist
    elif c is Dhat:
        return "dhat", [f.topic, f.sub], _dhat_of
    raise KripkitError("measure-violation", f"no clause applies to {f}")
