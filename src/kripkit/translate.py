"""Reduction of dynamic formulas to the static language.

Input is first desugared to the core constructors, then rewritten clause by
clause. Every recursive call must strictly decrease the lexicographic
(ndc, nsc) measure; a call that would not raises measure-violation. The
result is a static core formula and the rewrite is idempotent on its output.

Within one call, equal subformulas are translated once: a repeat appends the
trace steps of the first translation again, re-checks each of their calls'
measures, and shares its result. So the trace is the one a plain recursion
would record, and the output is a DAG.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import (And, Atom, D, Dhat, Eee, Formula, Not, See, Sse, Top,
                      agents_of, c_greater, desugar, dhat_core, ndc)
from .kripke_core import KripkitError


@dataclass(frozen=True)
class TraceStep:
    formula: Formula
    clause: str
    calls: tuple
    result: Formula


@dataclass(frozen=True)
class TranslationTrace:
    steps: tuple

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)


def _rewrap(op: Formula, sub: Formula) -> Formula:
    if isinstance(op, Eee):
        return Eee(sub)
    if isinstance(op, See):
        return See(op.group, sub)
    return Sse(op.group, op.topic, sub)


def translate(phi: Formula, agents=None) -> Formula:
    return translate_traced(phi, agents)[0]


def translate_traced(phi: Formula, agents=None):
    """Returns (static formula, TranslationTrace).

    agents: full roster, needed when a distributed modality sits under the
    everything-broadcast; inferred from the formula when omitted.
    """
    mentioned = agents_of(phi)
    if agents is None:
        roster = mentioned
    else:
        roster = frozenset(agents)
        if not mentioned <= roster:
            missing = ", ".join(sorted(mentioned - roster))
            raise KripkitError("unknown-agent",
                               f"formula mentions agents outside roster: {missing}")
    steps = []
    result = _tau(desugar(phi), roster, steps, _Memo())
    if ndc(result) != 0:
        raise KripkitError("measure-violation",
                           f"translation of {phi} is not static: {result}")
    return result, TranslationTrace(tuple(steps))


class _Memo:
    """What one translation call has met and finished.

    seen: id of each formula object met -> (that object, its canonical
      form), the canonical form being the first equal formula met. Holding
      the object keeps its id from being reused within the call.
    table: (type, name or group, id of each canonical child) -> canonical
      form; keyed by identity, so no lookup hashes a whole subtree.
    done: id of a canonical form -> (its translation, index of its first
      trace step, index after its last step).
    """

    def __init__(self):
        self.seen = {}
        self.table = {}
        self.done = {}

    def canonical(self, f: Formula) -> Formula:
        got = self.seen.get(id(f))
        if got is not None:
            return got[1]
        t = type(f)
        if t is Atom:
            key = (t, f.name)
        elif t is Not or t is Eee:
            key = (t, id(self.canonical(f.sub)))
        elif t is And:
            key = (t, id(self.canonical(f.left)), id(self.canonical(f.right)))
        elif t is D or t is See:
            key = (t, f.group, id(self.canonical(f.sub)))
        elif t is Sse or t is Dhat:
            key = (t, f.group, id(self.canonical(f.topic)),
                   id(self.canonical(f.sub)))
        else:  # Top, the one constant of the core
            key = (t,)
        c = self.table.setdefault(key, f)
        self.seen[id(f)] = (f, c)
        return c


def _tau(f: Formula, roster, steps: list, memo: _Memo) -> Formula:
    key = id(memo.canonical(f))
    got = memo.done.get(key)
    if got is not None:
        # a repeat: the same steps again, each of their calls re-checked
        # (read in place: a copy of the slice, up to about 1e4 steps, costs
        # an allocation that the heap may trim and fault in again)
        result, first, end = got
        for step in map(steps.__getitem__, range(first, end)):
            for g in step.calls:
                if not c_greater(step.formula, g):
                    raise KripkitError("measure-violation",
                                       f"no (ndc, nsc) decrease from "
                                       f"{step.formula} to {g}")
        steps.extend(map(steps.__getitem__, range(first, end)))
        return result
    entry = len(steps)
    steps.append(None)
    calls = []

    def call(g: Formula) -> Formula:
        if not c_greater(f, g):
            raise KripkitError("measure-violation",
                               f"no (ndc, nsc) decrease from {f} to {g}")
        calls.append(g)
        return _tau(g, roster, steps, memo)

    result, clause = _step(f, roster, call)
    steps[entry] = TraceStep(f, clause, tuple(calls), result)
    memo.done[key] = (result, entry, len(steps))
    return result


def _step(f: Formula, roster, call):
    if isinstance(f, (Atom, Top)):
        return f, "atom"
    if isinstance(f, Not):
        return Not(call(f.sub)), "not"
    if isinstance(f, And):
        return And(call(f.left), call(f.right)), "and"
    if isinstance(f, D):
        return D(f.group, call(f.sub)), "dist"
    if isinstance(f, Dhat):
        # expand around the two already-reduced components; the expansion
        # itself is static, so no further call on it
        return dhat_core(f.group, call(f.topic), call(f.sub)), "dhat"
    if isinstance(f, (Eee, See, Sse)):
        inner = f.sub
        if isinstance(inner, (Atom, Top)):
            return call(inner), "dyn-atom"
        if isinstance(inner, Not):
            return call(Not(_rewrap(f, inner.sub))), "dyn-not"
        if isinstance(inner, And):
            return call(And(_rewrap(f, inner.left),
                            _rewrap(f, inner.right))), "dyn-and"
        if isinstance(inner, D):
            if isinstance(f, Eee):
                if not roster:
                    raise KripkitError("empty-group",
                                       "roster needed to push D past [eee]")
                return call(D(roster, Eee(inner.sub))), "eee-dist"
            if isinstance(f, See):
                return call(D(f.group | inner.group,
                              See(f.group, inner.sub))), "see-dist"
            moved = Sse(f.group, f.topic, inner.sub)
            return call(And(D(f.group | inner.group, moved),
                            Dhat(inner.group, f.topic, moved))), "sse-dist"
        if isinstance(inner, (Eee, See, Sse)):
            return call(_rewrap(f, call(inner))), "dyn-dyn"
    raise KripkitError("measure-violation", f"no clause applies to {f}")
