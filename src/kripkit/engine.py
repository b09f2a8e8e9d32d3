"""Compilation of core formulas to node programs, the model-index codec and
the scan kernel.

A program is a DAG of nodes over parallel arrays. Kinds:
  K_ATOM atom(a1=atom index)      K_NOT not(a1=child)
  K_AND  and(a1, a2)              K_D   D(a1=agent mask, a2=child)
  K_EEE  eee(a1=child)            K_SEE see(a1=sender mask, a2=child)
  K_SSE  sse(a1=sender mask, a2=topic, a3=body)
  K_TOP  top (all-ones on every world)

Models of one shape (n worlds, nag agents, nat atoms) are identified with
indices of model_bits(n, nag, nat) bits. Layout, most significant bit first:
  relation bit for agent k, pair (u, v): position k*n*n + u*n + v
  valuation bit for atom t, world u:     position n*n*nag + t*n + u
Index 0 is the all-empty model. That is nag*n relation rows followed by nat
valuations, each an n-bit word with bit v at position (word*n + v);
decode_index and model_index convert between indices and those words.

The kernel evaluates the program once per aligned block of 2**L consecutive
indices, with the models of the block as lanes (bitslicing): every index
bit is a lane vector, an int whose bit i is that index bit of model
base + i. Bits below L are projections; bits at or above L are all-ones or
zero for the block. A node's value is one lane vector per world.

Frames (relation states) are the n*n*nag relation-bit lane vectors in
layout order, entry k*n*n + u*n + v for R_k(u, v). With R_G(u, v) the AND
of R_k(u, v) over k in G (all-ones for the empty group):
  D_G:        out[u] = lanes & ~OR_v(R_G(u, v) & ~sub[v])
  eee:        every agent gets R_all
  see S:      agent k gets R_k & R_S
  sse S|chi:  with X(u, v) = chi[u] ^ chi[v], the pairs that cross the
              topic, agent k gets the subtractive form
              R_k & ~OR_{j in S}(~R_j & X) and the intersection form
              R_k & (R_S | ~X); the two are compared on every lane and
              definition-mismatch is raised where they differ.
The topic is evaluated on every lane at once, so the body of an sse node is
evaluated once per frame.

The evaluator is a flat plan over a list of registers, built once per
program on its first non-empty scan and kept on the Program; no register
or step depends on the world count or the block width. A walk from the
root gives a register to each (node, frame) pair it meets, to each R_G
it needs (one per group and frame, a meet step) and to each frame:
register 0 holds the block's relation bits, and an eee, see or sse node
writes a new frame register, shared by updates of the same kind, group
and topic on the same frame. The walk emits one step per register in
dependency order, so a block runs the steps in a plain loop, with no
recursion and no lookup keyed by a frame's value; frames equal by value
but built along different paths sit in different registers. empty-group
and unknown-schema are raised when the plan is built, definition-mismatch
when an sse step meets it.

restrict_program drops the agents a program does not read, keeping the
others in roster order. The root's value on a model depends only on the
valuations and on the relations of the agents the program reads (the
coincidence lemma of modal logic). A model of the smaller space widens to
the full roster by giving each dropped agent an empty relation. Emptying
those rows maps every model of the full space to one of no larger index
(the dropped bits are only cleared) with the same truth values. So the
first failure of the full space has those rows empty: it is the widening
of a model of the smaller space, and as widening keeps the index order,
it is the widening of the first failure of the smaller space, failing at
the same world. A scan of the smaller space covers 2**(bits kept) models
where the full space has 2**B. Atoms are not dropped: valuation bits
become lanes, so while n*nat <= LANE_BITS fewer atoms only narrow the lane
vectors and never cut the number of blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import and_

from .formula import And, Atom, D, Eee, Formula, Not, See, Sse, desugar
from .kripke_core import KripkitError, check_distinct

K_ATOM, K_NOT, K_AND, K_D, K_EEE, K_SEE, K_SSE, K_TOP = range(8)
# a plan step only, never a program node: R_G of one frame
K_MEET = 8

# A block holds at most 2**LANE_BITS models, and no more than the
# valuation bits span (L <= n*nat), so its relation bits are all-ones or
# zero. The plan takes any width; blocks stay narrow because every lane
# of a block is evaluated before its first failure is reported, so wider
# blocks delay early failures.
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
    # the evaluation plan, built by _plan on the first non-empty scan
    plan: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)


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
        else:  # Top, the last core node desugar leaves
            out = emit(K_TOP)
        done[id(f)] = out
        return out

    root = go(desugar(phi))
    return Program(tuple(kinds), tuple(a1), tuple(a2), tuple(a3),
                   root, agents, atoms)


def restrict_program(prog: Program) -> Program:
    """prog over only the agents it reads, kept in roster order: the agents
    of its D, see and sse masks, with the masks renumbered; every atom stays.
    prog itself when it reads every agent, as it does once an eee node
    occurs.

    The module docstring says why a scan of the result finds the first
    failure of prog's space."""
    kinds, a1 = prog.kinds, prog.a1
    if K_EEE in kinds:
        return prog
    amask = 0
    for k, x in zip(kinds, a1):
        if k == K_D or k == K_SEE or k == K_SSE:
            amask |= x
    keep = [k for k in range(len(prog.agents)) if (amask >> k) & 1]
    if len(keep) == len(prog.agents):
        return prog

    def renumber(k, x):
        if k == K_D or k == K_SEE or k == K_SSE:
            return sum(1 << j for j, a in enumerate(keep) if (x >> a) & 1)
        return x

    return Program(kinds, tuple(map(renumber, kinds, a1)), prog.a2, prog.a3,
                   prog.root, tuple(prog.agents[k] for k in keep), prog.atoms)


def backend_name() -> str:
    """Name of the scan kernel; there is one, in pure Python."""
    return "pure"


# -- model-index codec --

def model_bits(n: int, nag: int, nat: int) -> int:
    """Index bits of an n-world model over nag agents and nat atoms."""
    return n * n * nag + n * nat


def decode_index(idx: int, n: int, nag: int, nat: int):
    """Relation rows and valuations of model idx < 2**B, as (rows, vals)."""
    B = model_bits(n, nag, nat)
    if not 0 <= idx < 1 << B:
        raise KripkitError("index-out-of-range",
                           f"model index {idx} outside [0, 2**{B}) "
                           f"at {n} worlds")
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

def _projections(L):
    """Lane vectors over 2**L lanes: entry b has bit i set iff bit b of i is."""
    lanes = (1 << (1 << L)) - 1
    out = []
    for b in range(L):
        half = 1 << b
        out.append(lanes // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half))
    return out


def _plan(prog):
    """The root's evaluation plan, as (steps, root register); each step
    (kind, out, x, y, z) writes register out (see the module docstring)."""
    kinds, a1, a2, a3 = prog.kinds, prog.a1, prog.a2, prog.a3
    nag = len(prog.agents)
    # register 0 holds the block's frame, 1..nat its atom values, the next
    # one R_G for the empty group and the one after it top; every later one
    # is written by its step, in plan order
    ones = 1 + len(prog.atoms)
    steps = []
    # (node, frame register), or a meet or frame key -> register
    regs = {}

    def emit(kind, x=0, y=0, z=0):
        o = ones + 2 + len(steps)
        steps.append((kind, o, x, y, z))
        return o

    def once(key, *step):
        o = regs.get(key)
        if o is None:
            o = regs[key] = emit(*step)
        return o

    def meet(g, f):
        """Register of R_G(u, v) for every pair in frame register f."""
        ks = tuple(k for k in range(nag) if (g >> k) & 1)
        if not ks:
            return ones
        return once(("meet", g, f), K_MEET, f, ks)

    def node(i, f):
        o = regs.get((i, f))
        if o is None:
            o = regs[i, f] = build(i, f)
        return o

    def build(i, f):
        k = kinds[i]
        if k == K_ATOM:
            return 1 + a1[i]
        if k == K_NOT:
            return emit(K_NOT, node(a1[i], f))
        if k == K_AND:
            return emit(K_AND, node(a1[i], f), node(a2[i], f))
        if k == K_D:
            if a1[i] == 0:
                raise KripkitError("empty-group", "D node with empty mask")
            return emit(K_D, node(a2[i], f), meet(a1[i], f))
        if k == K_EEE:
            m = meet((1 << nag) - 1, f)
            return node(a1[i], once(("eee", f), K_EEE, m))
        if k == K_SEE:
            g = a1[i]
            return node(a2[i], once(("see", g, f), K_SEE, f, meet(g, f)))
        if k == K_SSE:
            s = a1[i]
            t, m = node(a2[i], f), meet(s, f)
            senders = tuple(j for j in range(nag) if (s >> j) & 1)
            return node(a3[i],
                        once(("sse", s, t, f), K_SSE, f, t, (m, senders)))
        if k == K_TOP:
            return ones + 1
        raise KripkitError("unknown-schema", f"bad node kind {k}")

    return steps, node(prog.root, 0)


def _scan(prog: Program, n: int, start: int, stop: int):
    """First failure among indices [start, stop), as (index, its smallest
    failing world, models checked) or (-1, -1, checked). A block has no more
    lanes than the range has models, so one index is one lane."""
    if stop <= start:
        return -1, -1, 0
    if prog.plan is None:
        object.__setattr__(prog, "plan", _plan(prog))
    steps, root = prog.plan
    nag, nat = len(prog.agents), len(prog.atoms)
    nn, nr = n * n, n * n * nag
    B = model_bits(n, nag, nat)
    L = min(n * nat, LANE_BITS, (stop - start).bit_length() - 1)
    width = 1 << L
    lanes = (1 << width) - 1
    low = _projections(L)[::-1]
    high = range(B - 1, L - 1, -1)
    init = ([None] * (1 + nat) + [[lanes] * nn, [lanes] * n]
            + [None] * len(steps))
    base = start - start % width
    while base < stop:
        # the block's index bits in layout order, position j at bit B-1-j
        bits = [lanes if (base >> b) & 1 else 0 for b in high] + low
        # a list of its own per block, so that two threads scanning one
        # program do not share registers
        reg = init.copy()
        reg[0] = bits[:nr]
        reg[1:1 + nat] = [bits[i:i + n] for i in range(nr, B, n)]
        for k, o, x, y, z in steps:
            if k == K_AND:
                reg[o] = list(map(and_, reg[x], reg[y]))
            elif k == K_NOT:
                reg[o] = [lanes ^ v for v in reg[x]]
            elif k == K_D:
                # out[u] = AND_v(sub[v] | ~R_G(u, v)); pairs outside R_G
                # drop out
                sub, rg = reg[x], reg[y]
                val, j = [], 0
                for _ in range(n):
                    acc = lanes
                    for v in sub:
                        r = rg[j]
                        if r:
                            acc &= v | ~r
                        j += 1
                    val.append(acc)
                reg[o] = val
            elif k == K_MEET:
                fr = reg[x]
                val = fr[y[0] * nn:(y[0] + 1) * nn]
                for j in y[1:]:
                    val = list(map(and_, val, fr[j * nn:(j + 1) * nn]))
                reg[o] = val
            elif k == K_EEE:
                reg[o] = reg[x] * nag
            elif k == K_SEE:
                reg[o] = list(map(and_, reg[x], reg[y] * nag))
            else:  # K_SSE
                fr, chi, (m, senders) = reg[x], reg[y], z
                cross = [cu ^ cv for cu in chi for cv in chi]
                # subtractive form: cut the pairs that cross the topic
                # where a sender does not relate them
                cut = [0] * nn
                for j in senders:
                    cut = [c | (v & ~r) for c, v, r in
                           zip(cut, cross, fr[j * nn:(j + 1) * nn])]
                sub_form = [v & ~c for v, c in zip(fr, cut * nag)]
                # intersection form: keep pairs the senders relate or that
                # stay on one side of the topic
                keep = [r | ~v for r, v in zip(reg[m], cross)]
                if sub_form != list(map(and_, fr, keep * nag)):
                    raise KripkitError(
                        "definition-mismatch",
                        "subtractive and intersection forms disagree")
                reg[o] = sub_form
        root_val = reg[root]
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
