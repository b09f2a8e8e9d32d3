"""Compilation of core formulas to node programs, the model-index codec and
the scan kernel.

A program is a DAG of nodes over parallel arrays. Kinds:
  K_ATOM atom(a1=atom index)      K_NOT not(a1=child)
  K_AND  and(a1, a2)              K_D   D(a1=agent mask, a2=child)
  K_EEE  eee(a1=child)            K_SEE see(a1=sender mask, a2=child)
  K_SSE  sse(a1=sender mask, a2=topic, a3=body)

Models of one shape (n worlds, nag agents, nat atoms) are identified with
indices of model_bits(n, nag, nat) bits. Layout, most significant bit first:
  relation bit for agent k, pair (u, v): position k*n*n + u*n + v
  valuation bit for atom t, world u:     position n*n*nag + t*n + u
Index 0 is the all-empty model. That is nag*n relation rows followed by nat
valuations, each an n-bit word with bit v at position (word*n + v);
decode_index and model_index convert between indices and those words.
Frames (relation states) are tuples of successor rows, row k*n + u for agent
k at world u, as in Model.rows.

The valuation bits are the low n*nat bits of an index, so a block of 2**L
consecutive indices (aligned, L <= n*nat) shares one frame. The kernel
evaluates the program once per block, with the models of the block as
lanes: a node's value is one int per world, and bit i of the int for world
u is the node's truth at u in model base + i (bitslicing). Node results are
memoised per (node, frame) within one block.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formula import And, Atom, D, Eee, Formula, Not, See, Sse, desugar
from .kripke_core import KripkitError

K_ATOM, K_NOT, K_AND, K_D, K_EEE, K_SEE, K_SSE = range(7)

# A block holds at most 2**LANE_BITS models. Every lane of a block is
# evaluated before its first failure is reported, so wider blocks delay
# early failures.
LANE_BITS = 12


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


def check_distinct(kind: str, names) -> None:
    """A roster names each agent or atom once; the kernel and the reference
    semantics would otherwise read different positions for a name."""
    if len(set(names)) < len(names):
        dups = sorted({x for x in names if names.count(x) > 1})
        raise KripkitError("duplicate-roster-entry",
                           f"{kind} listed more than once: {', '.join(dups)}")


def compile_program(phi: Formula, agents, atoms) -> Program:
    agents = tuple(agents)
    atoms = tuple(atoms)
    check_distinct("agent", agents)
    check_distinct("atom", atoms)
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

    # id of a core node -> its program node; the desugared root keeps every
    # core node alive for the call
    done = {}

    def go(f):
        if isinstance(f, Atom):
            if f.name not in tpos:
                raise KripkitError("unknown-atom", f.name)
            return emit(K_ATOM, tpos[f.name])
        got = done.get(id(f))
        if got is not None:
            return got
        if isinstance(f, Not):
            out = emit(K_NOT, go(f.sub))
        elif isinstance(f, And):
            out = emit(K_AND, go(f.left), go(f.right))
        elif isinstance(f, D):
            out = emit(K_D, gmask(f.group), go(f.sub))
        elif isinstance(f, Eee):
            out = emit(K_EEE, go(f.sub))
        elif isinstance(f, See):
            out = emit(K_SEE, gmask(f.group), go(f.sub))
        elif isinstance(f, Sse):
            out = emit(K_SSE, gmask(f.group), go(f.topic), go(f.sub))
        else:
            raise TypeError(type(f))
        done[id(f)] = out
        return out

    root = go(desugar(phi))
    return Program(tuple(kinds), tuple(a1), tuple(a2), tuple(a3),
                   root, agents, atoms)


def backend_name() -> str:
    """Name of the scan kernel; there is one, in pure Python."""
    return "pure"


# -- model-index codec --

def model_bits(n: int, nag: int, nat: int) -> int:
    """Index bits of an n-world model over nag agents and nat atoms."""
    return n * n * nag + n * nat


def decode_index(idx: int, n: int, nag: int, nat: int):
    """Relation rows and valuations of model idx, as (rows, vals)."""
    B = model_bits(n, nag, nat)
    words = []
    for j in range(nag * n + nat):
        word = 0
        for v in range(n):
            word |= ((idx >> (B - 1 - (j * n + v))) & 1) << v
        words.append(word)
    return tuple(words[:nag * n]), tuple(words[nag * n:])


def model_index(model) -> int:
    """Index of a model over w0..w{n-1}; the inverse of decode_index."""
    n = model.n
    B = model_bits(n, len(model.agents), len(model.atoms))
    idx = 0
    for j, word in enumerate(model.rows + model.vals):
        for v in range(n):
            if (word >> v) & 1:
                idx |= 1 << (B - 1 - (j * n + v))
    return idx


# -- scan kernel --

def _group_rows(frame, g, n, full):
    """Per world u, the worlds that every agent in mask g reaches from u."""
    out = []
    for u in range(n):
        dr = full
        m, kk = g, 0
        while m:
            if m & 1:
                dr &= frame[kk * n + u]
            m >>= 1
            kk += 1
        out.append(dr)
    return out


def _eee_frame(frame, n, nag, full):
    return tuple(_group_rows(frame, (1 << nag) - 1, n, full)) * nag


def _see_frame(frame, s, n, nag, full):
    if s == 0:
        return frame
    sr = _group_rows(frame, s, n, full)
    return tuple(frame[kk * n + u] & sr[u]
                 for kk in range(nag) for u in range(n))


def _sse_frame(frame, s, chi, n, nag, full):
    """Frame after [sse S | chi], chi a world mask. Builds the subtractive
    and the intersection form of the definition and checks they agree."""
    co = full & ~chi
    fi = [co if (chi >> u) & 1 else chi for u in range(n)]
    ko = [chi if (chi >> u) & 1 else co for u in range(n)]
    ds = _group_rows(frame, s, n, full)
    nf = []
    for kk in range(nag):
        for u in range(n):
            cut = 0
            m, jj = s, 0
            while m:
                if m & 1:
                    cut |= (full & ~frame[jj * n + u]) & fi[u]
                m >>= 1
                jj += 1
            sub_row = frame[kk * n + u] & ~cut
            int_row = frame[kk * n + u] & (ds[u] | ko[u])
            if sub_row != int_row:
                raise KripkitError("definition-mismatch",
                                   "subtractive and intersection forms disagree")
            nf.append(sub_row)
    return tuple(nf)


def _projections(L):
    """Lane vectors over 2**L lanes: entry b has bit i set iff bit b of i is."""
    lanes = (1 << (1 << L)) - 1
    out = []
    for b in range(L):
        half = 1 << b
        out.append(lanes // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half))
    return out


def _lane_evaluator(prog, n, lanes, atom_vals, memo):
    """Evaluator of node values as per-world lane vectors (see the module
    docstring). atom_vals and memo are filled in by the caller per block."""
    kinds, a1, a2, a3 = prog.kinds, prog.a1, prog.a2, prog.a3
    nag = len(prog.agents)
    full = (1 << n) - 1
    worlds = range(n)

    def ev(node, frame):
        key = (node, frame)
        got = memo.get(key)
        if got is not None:
            return got
        k = kinds[node]
        if k == K_ATOM:
            out = atom_vals[a1[node]]
        elif k == K_NOT:
            out = tuple([lanes ^ x for x in ev(a1[node], frame)])
        elif k == K_AND:
            out = tuple([x & y for x, y in
                         zip(ev(a1[node], frame), ev(a2[node], frame))])
        elif k == K_D:
            g = a1[node]
            if g == 0:
                raise KripkitError("empty-group", "D node with empty mask")
            sub = ev(a2[node], frame)
            acc = []
            for dr in _group_rows(frame, g, n, full):
                x, v = lanes, 0
                while dr:
                    if dr & 1:
                        x &= sub[v]
                    dr >>= 1
                    v += 1
                acc.append(x)
            out = tuple(acc)
        elif k == K_EEE:
            out = ev(a1[node], _eee_frame(frame, n, nag, full))
        elif k == K_SEE:
            out = ev(a2[node], _see_frame(frame, a1[node], n, nag, full))
        elif k == K_SSE:
            s = a1[node]
            chi = ev(a2[node], frame)
            acc = [0] * n
            # the updated frame depends on the topic's truth pattern over
            # the worlds; evaluate the body once per pattern that occurs
            for c in range(full + 1):
                m = lanes
                for u in worlds:
                    m &= chi[u] if (c >> u) & 1 else lanes ^ chi[u]
                if m:
                    body = ev(a3[node], _sse_frame(frame, s, c, n, nag, full))
                    for u in worlds:
                        acc[u] |= body[u] & m
            out = tuple(acc)
        else:
            raise KripkitError("unknown-schema", f"bad node kind {k}")
        memo[key] = out
        return out

    return ev


def _scan(prog: Program, n: int, start: int, stop: int):
    """First failure among indices [start, stop), as (index, its smallest
    failing world, models checked) or (-1, -1, checked). A block has no more
    lanes than the range has models, so one index is one lane."""
    if stop <= start:
        return -1, -1, 0
    nag, nat = len(prog.agents), len(prog.atoms)
    nv = n * nat
    L = min(nv, LANE_BITS, (stop - start).bit_length() - 1)
    width = 1 << L
    lanes = (1 << width) - 1
    proj = _projections(L)
    atom_vals = [()] * nat
    memo = {}
    ev = _lane_evaluator(prog, n, lanes, atom_vals, memo)
    base = start - start % width
    while base < stop:
        frame, vals = decode_index(base, n, nag, nat)
        for t in range(nat):
            vec = []
            for u in range(n):
                b = nv - 1 - (t * n + u)
                if b < L:
                    vec.append(proj[b])
                else:
                    vec.append(lanes if (vals[t] >> u) & 1 else 0)
            atom_vals[t] = tuple(vec)
        memo.clear()
        root_val = ev(prog.root, frame)
        bad = 0
        for x in root_val:
            bad |= lanes ^ x
        # only lanes inside [start, stop) count
        lo, hi = max(start - base, 0), min(stop - base, width)
        bad &= ((1 << hi) - 1) ^ ((1 << lo) - 1)
        if bad:
            i = (bad & -bad).bit_length() - 1
            for u in range(n):
                if not (root_val[u] >> i) & 1:
                    return base + i, u, base + i - start + 1
        base += width
    return -1, -1, stop - start


def run_range(prog: Program, n: int, start: int, stop: int):
    """First failure among model indices [start, stop), as
    (index, world, checked) or (-1, -1, checked); both ends lie in
    [0, 2**B]."""
    B = model_bits(n, len(prog.agents), len(prog.atoms))
    if not (0 <= start <= 1 << B and 0 <= stop <= 1 << B):
        raise KripkitError("index-out-of-range",
                           f"range [{start}, {stop}) outside [0, 2**{B}] "
                           f"at {n} worlds")
    return _scan(prog, n, start, stop)


def run_one(prog: Program, n: int, idx: int):
    """Smallest world where the root fails on model idx, or -1; idx lies
    in [0, 2**B)."""
    B = model_bits(n, len(prog.agents), len(prog.atoms))
    if not 0 <= idx < 1 << B:
        raise KripkitError("index-out-of-range",
                           f"model index {idx} outside [0, 2**{B}) "
                           f"at {n} worlds")
    return _scan(prog, n, idx, idx + 1)[1]
