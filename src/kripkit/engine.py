"""Compilation of core formulas to node programs, and backend selection.

A program is a DAG of nodes over parallel arrays. Kinds:
  0 atom(a1=atom index)            1 not(a1=child)
  2 and(a1, a2)                    3 D(a1=agent mask, a2=child)
  4 eee(a1=child)                  5 see(a1=sender mask, a2=child)
  6 sse(a1=sender mask, a2=topic, a3=body)

The compiled backend is used when its extension module imported cleanly;
KRIPKIT_PURE=1 forces the pure-Python one.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .formula import And, Atom, D, Eee, Formula, Not, See, Sse, desugar
from .kripke_core import KripkitError

K_ATOM, K_NOT, K_AND, K_D, K_EEE, K_SEE, K_SSE = range(7)


@dataclass(frozen=True)
class Program:
    kinds: tuple
    a1: tuple
    a2: tuple
    a3: tuple
    root: int
    agents: tuple
    atoms: tuple

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)


def compile_program(phi: Formula, agents, atoms) -> Program:
    agents = tuple(agents)
    atoms = tuple(atoms)
    apos = {a: i for i, a in enumerate(agents)}
    tpos = {t: i for i, t in enumerate(atoms)}
    kinds, a1, a2, a3 = [], [], [], []
    dedup = {}

    def emit(kind, x=0, y=0, z=0):
        key = (kind, x, y, z)
        got = dedup.get(key)
        if got is not None:
            return got
        kinds.append(kind)
        a1.append(x)
        a2.append(y)
        a3.append(z)
        dedup[key] = len(kinds) - 1
        return dedup[key]

    def gmask(group):
        m = 0
        for ag in group:
            if ag not in apos:
                raise KripkitError("unknown-agent", ag)
            m |= 1 << apos[ag]
        return m

    def go(f):
        if isinstance(f, Atom):
            if f.name not in tpos:
                raise KripkitError("unknown-atom", f.name)
            return emit(K_ATOM, tpos[f.name])
        if isinstance(f, Not):
            return emit(K_NOT, go(f.sub))
        if isinstance(f, And):
            return emit(K_AND, go(f.left), go(f.right))
        if isinstance(f, D):
            return emit(K_D, gmask(f.group), go(f.sub))
        if isinstance(f, Eee):
            return emit(K_EEE, go(f.sub))
        if isinstance(f, See):
            return emit(K_SEE, gmask(f.group), go(f.sub))
        if isinstance(f, Sse):
            return emit(K_SSE, gmask(f.group), go(f.topic), go(f.sub))
        raise TypeError(type(f))

    root = go(desugar(phi))
    return Program(tuple(kinds), tuple(a1), tuple(a2), tuple(a3),
                   root, agents, atoms)


def _load_backend():
    if os.environ.get("KRIPKIT_PURE") == "1":
        from . import _engine_py
        return _engine_py
    try:
        from . import _engine_c
        return _engine_c
    except ImportError:
        from . import _engine_py
        return _engine_py


_BACKEND = _load_backend()


def backend():
    return _BACKEND


def backend_name() -> str:
    return _BACKEND.NAME


def model_bits(n: int, nag: int, nat: int) -> int:
    """Index bits of an n-world model over nag agents and nat atoms."""
    return n * n * nag + n * nat


def run_range(prog: Program, n: int, start: int, stop: int, impl=None):
    """First failure among model indices [start, stop), as
    (index, world, checked) or (-1, -1, checked); both ends lie in
    [0, 2**B]."""
    B = model_bits(n, len(prog.agents), len(prog.atoms))
    if not (0 <= start <= 1 << B and 0 <= stop <= 1 << B):
        raise KripkitError("index-out-of-range",
                           f"range [{start}, {stop}) outside [0, 2**{B}] "
                           f"at {n} worlds")
    b = impl if impl is not None else _BACKEND
    return b.check_range(prog.kinds, prog.a1, prog.a2, prog.a3, prog.root,
                         n, len(prog.agents), len(prog.atoms), start, stop)


def run_one(prog: Program, n: int, idx: int, impl=None):
    """Smallest world where the root fails on model idx, or -1; idx lies
    in [0, 2**B)."""
    B = model_bits(n, len(prog.agents), len(prog.atoms))
    if not 0 <= idx < 1 << B:
        raise KripkitError("index-out-of-range",
                           f"model index {idx} outside [0, 2**{B}) "
                           f"at {n} worlds")
    b = impl if impl is not None else _BACKEND
    return b.check_one(prog.kinds, prog.a1, prog.a2, prog.a3, prog.root,
                       n, len(prog.agents), len(prog.atoms), idx)
