"""Satisfaction over the full language, including the dynamic modalities.

Truth sets are computed as world bitmasks. Dynamic subformulas recurse on a
transformed model; the sse topic is evaluated on the incoming model before
the relations change.

Each model visited during one evaluation has its own memo, keyed by the
identity of the subformula object. The root formula keeps every subformula
alive for the length of the call, so no identity is reused within it.

Names are checked where they are read: every atom and agent is looked up
through Model.atom_index or Model.agent_index as its node is first
evaluated, and an updated model keeps the rosters, so a name outside them
raises unknown-atom or unknown-agent, naming the first one met.
"""
from __future__ import annotations

from .formula import (And, Atom, Bot, D, Dhat, Eee, Formula, Iff, Implies, K,
                      Not, Or, See, Sse, Top)
from .kripke_core import KripkitError, Model, distributed_rows, group_mask
from .transforms import eee_rows, knowing_only_rows, see_rows, sse_rows


def truth_mask(model: Model, phi: Formula) -> int:
    return _eval(model, phi, {})


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


def _eval(model: Model, phi: Formula, memo: dict) -> int:
    """Truth mask of phi on model; memo belongs to this model alone."""
    key = id(phi)
    got = memo.get(key)
    if got is not None:
        return got
    full = (1 << model.n) - 1
    if isinstance(phi, Atom):
        out = model.atom_mask(phi.name)
    elif isinstance(phi, Top):
        out = full
    elif isinstance(phi, Bot):
        out = 0
    elif isinstance(phi, Not):
        out = full & ~_eval(model, phi.sub, memo)
    elif isinstance(phi, And):
        out = _eval(model, phi.left, memo) & _eval(model, phi.right, memo)
    elif isinstance(phi, Or):
        out = _eval(model, phi.left, memo) | _eval(model, phi.right, memo)
    elif isinstance(phi, Implies):
        out = (full & ~_eval(model, phi.left, memo)) | _eval(model, phi.right, memo)
    elif isinstance(phi, Iff):
        out = full & ~(_eval(model, phi.left, memo) ^ _eval(model, phi.right, memo))
    elif isinstance(phi, K):
        out = _box(distributed_rows(model, 1 << model.agent_index(phi.agent)),
                   _eval(model, phi.sub, memo))
    elif isinstance(phi, D):
        out = _box(distributed_rows(model, group_mask(model, phi.group)),
                   _eval(model, phi.sub, memo))
    elif isinstance(phi, Dhat):
        ko = knowing_only_rows(model.n, _eval(model, phi.topic, memo))
        drows = distributed_rows(model, group_mask(model, phi.group))
        out = _box([d & k for d, k in zip(drows, ko)],
                   _eval(model, phi.sub, memo))
    elif isinstance(phi, Eee):
        out = _eval(model.with_rows(eee_rows(model)), phi.sub, {})
    elif isinstance(phi, See):
        moved = model.with_rows(see_rows(model, group_mask(model, phi.group)))
        out = _eval(moved, phi.sub, {})
    elif isinstance(phi, Sse):
        chi = _eval(model, phi.topic, memo)
        moved = model.with_rows(sse_rows(model, group_mask(model, phi.group), chi))
        out = _eval(moved, phi.sub, {})
    else:
        raise KripkitError("not-a-formula", repr(phi))
    memo[key] = out
    return out
