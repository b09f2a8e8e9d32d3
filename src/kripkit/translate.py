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
distinct steps on first read. The output is a DAG. The clauses run from
one explicit stack: under CPython 3.11 a deep recursion frees and faults
in frame-stack memory as it unwinds, at a cost that depends on the
caller's depth.
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
    stack = []  # (formula, its _step generator, its calls)
    g = phi
    while True:
        got = distinct.get(id(g))
        if got is None:
            stack.append((g, _step(g, roster, table), []))
            result = None
        else:
            result = got.result
        while stack:
            f, step, calls = stack[-1]
            try:
                g = step.send(result)
            except StopIteration as stop:
                result, clause = stop.value
                stack.pop()
                distinct[id(f)] = TraceStep(f, clause, tuple(calls), result)
                continue
            if not c_greater(f, g):
                raise KripkitError("measure-violation",
                                   "no (ndc, nsc) decrease from ndc "
                                   f"{_measures(f)[0]} to {_measures(g)[0]}")
            calls.append(g)
            break
        else:
            return result, distinct


def _rewrap(t, op: Formula, sub: Formula) -> Formula:
    if isinstance(op, Eee):
        return t.emit(Eee, sub)
    if isinstance(op, See):
        return t.emit(See, op.group, sub)
    return t.emit(Sse, op.group, op.topic, sub)


def _step(f: Formula, roster, t):
    """One rewrite clause on f, as a generator: it yields each formula it
    needs translated, is sent back its translation, and returns (result,
    clause). Every formula it makes is built through target t."""
    emit = t.emit
    if isinstance(f, (Atom, Top)):
        return f, "atom"
    if isinstance(f, Not):
        return emit(Not, (yield f.sub)), "not"
    if isinstance(f, And):
        return emit(And, (yield f.left), (yield f.right)), "and"
    if isinstance(f, D):
        return emit(D, f.group, (yield f.sub)), "dist"
    if isinstance(f, Dhat):
        # expand around the two already-reduced components; the expansion
        # itself is static, so no further call on it
        return _dhat(t, f.group, (yield f.topic), (yield f.sub)), "dhat"
    if isinstance(f, (Eee, See, Sse)):
        inner = f.sub
        if isinstance(inner, (Atom, Top)):
            return (yield inner), "dyn-atom"
        if isinstance(inner, Not):
            return (yield emit(Not, _rewrap(t, f, inner.sub))), "dyn-not"
        if isinstance(inner, And):
            return (yield emit(And, _rewrap(t, f, inner.left),
                               _rewrap(t, f, inner.right))), "dyn-and"
        if isinstance(inner, D):
            if isinstance(f, Eee):
                if not roster:
                    raise KripkitError("empty-group",
                                       "roster needed to push D past [eee]")
                return (yield emit(D, t.group(roster),
                                   emit(Eee, inner.sub))), "eee-dist"
            if isinstance(f, See):
                return (yield emit(D, t.group(f.group | inner.group),
                                   emit(See, f.group, inner.sub))), "see-dist"
            moved = emit(Sse, f.group, f.topic, inner.sub)
            both = emit(And, emit(D, t.group(f.group | inner.group), moved),
                        emit(Dhat, inner.group, f.topic, moved))
            return (yield both), "sse-dist"
        if isinstance(inner, (Eee, See, Sse)):
            return (yield _rewrap(t, f, (yield inner))), "dyn-dyn"
    raise KripkitError("measure-violation", f"no clause applies to {f}")
