"""Satisfaction over the full language, including the dynamic modalities.

Truth sets are computed as world bitmasks. Dynamic subformulas recurse on a
transformed model; the sse topic is evaluated on the incoming model before
the relations change.

Each model visited during one evaluation has its own memo, keyed by the
identity of the subformula object, and holding too the distributed rows of
each D group and K agent read on that model. The root formula keeps every
subformula alive for the length of the call, so no identity is reused
within it.

Names are checked where they are read: every atom and agent is looked up
through Model.atom_index or Model.agent_index when its node is first
evaluated (a group's agents when the group is first read on a model), and
an updated model keeps the rosters, so a name outside them raises
unknown-atom or unknown-agent, naming the first one met.
"""
from __future__ import annotations

from .formula import (And, Atom, Bot, D, Dhat, Eee, Formula, Iff, Implies, K,
                      Not, Or, See, Sse, Top, _too_deep)
from .kripke_core import KripkitError, Model, distributed_rows, group_mask
from .transforms import eee_rows, knowing_only_rows, see_rows, sse_rows


def truth_mask(model: Model, phi: Formula) -> int:
    try:
        return _eval(model, phi, {})
    except RecursionError:
        raise _too_deep("evaluate") from None


def truth_set(model: Model, phi: Formula) -> frozenset:
    """World names where phi holds."""
    mask = truth_mask(model, phi)
    return frozenset(w for i, w in enumerate(model.worlds) if (mask >> i) & 1)


def satisfies(model: Model, world, phi: Formula) -> bool:
    w = model.world_index(world)
    return bool((truth_mask(model, phi) >> w) & 1)


def _box(drows, submask: int) -> int:
    out = 0
    for w, row in enumerate(drows):
        if row & ~submask == 0:
            out |= 1 << w
    return out


def _drows(model: Model, memo: dict, group) -> tuple:
    """Rows of R_{D,G} for group (a frozenset, or a tuple of K's one agent),
    kept in the model's memo under the group itself."""
    got = memo.get(group)
    if got is None:
        got = memo[group] = distributed_rows(model, group_mask(model, group))
    return got


def _eval(model: Model, phi: Formula, memo: dict) -> int:
    """Truth mask of phi on model; memo belongs to this model alone. It maps
    the id of each subformula evaluated to its mask, and each D group and K
    agent met to its distributed rows."""
    key = id(phi)
    got = memo.get(key)
    if got is not None:
        return got
    t = type(phi)
    if t is Not:
        out = ((1 << model.n) - 1) & ~_eval(model, phi.sub, memo)
    elif t is And:
        out = _eval(model, phi.left, memo) & _eval(model, phi.right, memo)
    elif t is D:
        drows = _drows(model, memo, phi.group)
        out = _box(drows, _eval(model, phi.sub, memo))
    elif t is Atom:
        out = model.atom_mask(phi.name)
    elif t is Top:
        out = (1 << model.n) - 1
    elif t is Bot:
        out = 0
    elif t is Or:
        out = _eval(model, phi.left, memo) | _eval(model, phi.right, memo)
    elif t is Implies:
        out = (((1 << model.n) - 1) & ~_eval(model, phi.left, memo)) \
            | _eval(model, phi.right, memo)
    elif t is Iff:
        out = ((1 << model.n) - 1) & ~(_eval(model, phi.left, memo)
                                       ^ _eval(model, phi.right, memo))
    elif t is K:
        drows = _drows(model, memo, (phi.agent,))
        out = _box(drows, _eval(model, phi.sub, memo))
    elif t is Dhat:
        ko = knowing_only_rows(model.n, _eval(model, phi.topic, memo))
        drows = _drows(model, memo, phi.group)
        out = _box([d & k for d, k in zip(drows, ko)],
                   _eval(model, phi.sub, memo))
    elif t is Eee:
        out = _eval(model.with_rows(eee_rows(model)), phi.sub, {})
    elif t is See:
        moved = model.with_rows(see_rows(model, group_mask(model, phi.group)))
        out = _eval(moved, phi.sub, {})
    elif t is Sse:
        chi = _eval(model, phi.topic, memo)
        moved = model.with_rows(sse_rows(model, group_mask(model, phi.group), chi))
        out = _eval(moved, phi.sub, {})
    else:
        raise KripkitError("not-a-formula", repr(phi))
    memo[key] = out
    return out
