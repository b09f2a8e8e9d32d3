"""Relation surgery: the three broadcast actions and reading events.

Row-level helpers return successor-bitmask tuples laid out like Model.rows;
the apply_* wrappers produce fresh Model values. eee and see S are the reading
events alpha(i) = Ag and alpha(i) = S + {i}, built by one row builder. The sse
builder computes the subtractive and the intersection characterisations
independently and insists they agree.
"""
from __future__ import annotations

from functools import reduce
from operator import or_

from .kripke_core import (KripkitError, Model, distributed_rows, group_mask,
                          rows_to_pairs)


def full_ignorance_rows(n: int, chi_mask: int) -> tuple:
    """Pairs that cross the topic boundary, as successor rows."""
    full = (1 << n) - 1
    co = full & ~chi_mask
    return tuple(co if (chi_mask >> u) & 1 else chi_mask for u in range(n))


def knowing_only_rows(n: int, chi_mask: int) -> tuple:
    """Pairs that stay on one side of the topic boundary."""
    full = (1 << n) - 1
    co = full & ~chi_mask
    return tuple(chi_mask if (chi_mask >> u) & 1 else co for u in range(n))


def full_ignorance_relation(model: Model, topic) -> frozenset:
    from .semantics import truth_mask
    return rows_to_pairs(full_ignorance_rows(model.n, truth_mask(model, topic)))


def knowing_only_relation(model: Model, topic) -> frozenset:
    from .semantics import truth_mask
    return rows_to_pairs(knowing_only_rows(model.n, truth_mask(model, topic)))


def _reading_rows(model: Model, masks) -> tuple:
    """Agent k gets the distributed rows of the agent mask masks[k]
    (nonempty); each distinct mask is intersected once."""
    dist = {m: distributed_rows(model, m) for m in set(masks)}
    return tuple(r for m in masks for r in dist[m])


def eee_rows(model: Model) -> tuple:
    """Every agent's relation becomes the whole roster's distributed one."""
    nag = len(model.agents)
    return _reading_rows(model, ((1 << nag) - 1,) * nag)


def see_rows(model: Model, smask: int) -> tuple:
    """R_i intersected with the senders' distributed relation (identity if none)."""
    return _reading_rows(model,
                         [smask | 1 << k for k in range(len(model.agents))])


def sse_rows(model: Model, smask: int, chi_mask: int) -> tuple:
    n = model.n
    full = (1 << n) - 1
    nag = len(model.agents)
    fi = full_ignorance_rows(n, chi_mask)
    ko = knowing_only_rows(n, chi_mask)
    # senders' distributed relation, with the empty group read as W x W
    dsrows = distributed_rows(model, smask) if smask else (full,) * n

    # the edges a sender rules out that cross the topic boundary: one cut
    # per world, the same for every agent
    senders = [j for j in range(smask.bit_length()) if (smask >> j) & 1]
    cut = [fi[u] & reduce(or_, (~model.row(j, u) for j in senders), 0)
           for u in range(n)]
    subtractive = [model.row(a, u) & ~cut[u]
                   for a in range(nag) for u in range(n)]

    intersection = []
    for a in range(nag):
        for u in range(n):
            intersection.append(model.row(a, u) & (dsrows[u] | ko[u]))

    if subtractive != intersection:
        raise KripkitError("definition-mismatch",
                           "subtractive and intersection forms disagree")
    return tuple(subtractive)


def apply_eee(model: Model) -> Model:
    return model.with_rows(eee_rows(model))


def apply_see(model: Model, group) -> Model:
    return model.with_rows(see_rows(model, group_mask(model, group)))


def apply_sse(model: Model, group, topic) -> Model:
    """Topic is evaluated on the incoming model, once."""
    from .semantics import truth_mask
    smask = group_mask(model, group)
    return model.with_rows(sse_rows(model, smask, truth_mask(model, topic)))


def resolve_alpha(model: Model, alpha) -> dict:
    """Total {agent: group} map; agents left out read only their own messages."""
    for k in alpha:
        model.agent_index(k)
    out = {}
    for i in model.agents:
        g = frozenset(alpha.get(i, (i,)))
        for j in g:
            model.agent_index(j)
        if i not in g:
            raise KripkitError("alpha-not-reflexive",
                               f"agent {i} does not read its own messages")
        out[i] = g
    return out


def read_rows(model: Model, alpha) -> tuple:
    """Agent i's relation becomes the distributed one of alpha(i)."""
    alpha = resolve_alpha(model, alpha)
    return _reading_rows(model,
                         [group_mask(model, alpha[i]) for i in model.agents])


def apply_reading_event(model: Model, alpha) -> Model:
    return model.with_rows(read_rows(model, alpha))
