"""Compilation of core formulas to node programs, the model-index codec and
the scan kernel.

A program is a DAG of nodes over parallel arrays. Kinds:
  K_ATOM atom(a1=atom index)      K_NOT not(a1=child)
  K_AND  and(a1, a2)              K_D   D(a1=agent mask, a2=child)
  K_SEE  see(a1=sender mask, a2=child)
  K_SSE  sse(a1=sender mask, a2=topic, a3=body)
  K_TOP  top (all-ones on every world)

compile_program emits phi's core form through formula.core_form, the
rewrite desugar runs, one node per distinct kind and arguments; [eee] is
emitted as [see Ag] for the whole roster Ag (R_k & R_Ag = R_Ag), so
[eee] f and [see Ag] f are one node.

Models of one shape (n worlds, nag agents, nat atoms) are identified with
indices of model_bits(n, nag, nat) bits. Layout, most significant bit first:
  relation bit for agent k, pair (u, v): position k*n*n + u*n + v
  valuation bit for atom t, world u:     position n*n*nag + t*n + u
Index 0 is the all-empty model. That is nag*n relation rows followed by nat
valuations, each an n-bit word with bit v at position (word*n + v);
decode_index and model_index convert between indices and those words, and
widen_index moves a model of fewer agents into the full roster's space.

The kernel evaluates the program once per aligned block of 2**L consecutive
indices, with the models of the block as lanes (bitslicing): every index
bit is a lane vector, an int whose bit i is that index bit of model
base + i. Bits below L are projections; bits at or above L are all-ones or
zero for the block. A node's value is one lane vector per world. A scan
builds its registers once, register 0 being its list of index bits; each
block flips in place the bits at or above L (the frame's) that changed
since the block before, slices again each valuation word that reads one,
and masks its lanes to [start, stop) only when it is the first or last
block of a scan and reaches outside the range.

Frames (relation states) are the n*n*nag relation-bit lane vectors in
layout order, entry k*n*n + u*n + v for R_k(u, v). With R_G(u, v) the AND
of R_k(u, v) over k in G (all-ones for the empty group; a lone agent's
rows of the frame itself, read from offset k*n*n):
  D_G:        out[u] = lanes & ~OR_v(R_G(u, v) & ~sub[v]), and for a
              complemented child c, lanes & ~OR_v(R_G(u, v) & c[v])
  see S:      agent k gets R_k & R_S: a see frame (register f, mask s)
              has R_G = R_{G|s} of f, and is a register only under an sse
  sse S|chi:  with X(u, v) = chi[u] ^ chi[v], the pairs that cross the
              topic, agent k gets the subtractive form
              R_k & ~OR_{j in S}(~R_j & X) and the intersection form
              R_k & (R_S | ~X); the two are compared on every lane and
              definition-mismatch is raised where they differ.
The topic is evaluated on every lane at once, so the body of an sse node is
evaluated once per frame.

The evaluator is a flat plan over a list of registers, built once per
program on its first non-empty scan and kept on the Program; no register or
step depends on the world count or the block width. The planner gives a
signed reference to each (node, frame) pair the root reads: register r, or
~r for the complement of register r. A NOT is a sign, not a step: AND of
two plain inputs is an AND step, of one complemented input an ANDN step
(x & ~y), of two an OR step read complemented (~x & ~y is ~(x | y));
x & x is x and x & ~x is bottom, the complement of top. D of a complemented
child is a DN step, an sse step reads its topic's register whatever its
sign (the crossings are an XOR) and a complemented root is read as it
stands, failing where its register's bits are set. Register 0 holds the
block's index bits, relation bits first, read up to the n*n*nag-th; the
root is planned on the frame (0, 0). A D over G on (f, s) reads R_{G|s} of
f: over one agent that agent's rows of f, over two or more a meet step
(one per group and register). A see node over S (an [eee] too) plans its
body on (f, s | S) and emits no step. An sse node on (f, s) reads every
agent's rows, so it first builds the frame in a see step when s is
nonempty; its own step writes a new frame register, with mask 0.
A node's children come before it in the program, as compile_program emits
them, so a frame is planned in two passes over the node arrays and no
recursion: a backward one marks the nodes the frame's top node reads on
it (all but those read only through the body of a see or sse node), and a
forward one gives each marked node its reference from its children's. A
see or sse node plans its body the same way on its frame, once per (body,
frame), so updates that share a frame and a body below them plan it once.
Every step is emitted once per distinct (kind, inputs), in dependency
order, so a block runs the steps in a plain loop, with no recursion and no
lookup keyed by a frame's value; frames equal by value but built along
different paths sit in different registers. A step holds the registers it
reads in fixed fields, so that one backward pass from the root, after the
planner has folded x & x and x & ~x, keeps the steps the root reads,
directly or through other steps: a step nothing reads is not in the plan,
sse steps excepted, since each one checks definition-mismatch. Only a fold
leaves a step unread, and the planner notes folds, so a plan with none
skips the pass. Registers keep their numbers, and a scan's register list
runs up to the last one the plan writes; each block writes its steps'
registers into it, each after those it reads (any other still holds None
on the first block). So no block runs the steps under a fold.
empty-group and unknown-schema (also for a node that reads one not before
it) are raised when the plan is built, definition-mismatch when an sse
step meets it.

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
where the full space has 2**B. A program has a handful of distinct masks,
so each is renumbered once and written back at the D, see and sse nodes
that hold it. Atoms are not dropped: valuation bits become lanes, so while
n*nat <= LANE_BITS fewer atoms only narrow the lane vectors and never cut
the number of blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .formula import And, D, Eee, Formula, Not, See, Sse, Top, core_form
# not called here; kbench's trace sites read it as engine.desugar
from .formula import desugar  # noqa: F401
from .kripke_core import KripkitError, check_distinct

K_ATOM, K_NOT, K_AND, K_D, K_SEE, K_SSE, K_TOP = range(7)
# plan steps only, never program nodes: R_G of one frame, x & ~y, x | y,
# and D of a complemented child
K_MEET, K_ANDN, K_OR, K_DN = range(7, 11)

# A block holds at most 2**LANE_BITS models, and no more than the
# valuation bits span (L <= n*nat), so its relation bits are all-ones or
# zero. The plan takes any width. Blocks of up to B bits delayed no early
# failure, but the extra ops per run grew kbench's per-op record past its
# RSS bound, so blocks stay narrow until that record is bounded. The signed
# references, the lone agent's frame rows, the register list built once per
# scan (each block flips the frame's changed bits in place) and the dropped
# unread steps cut work per block, and are independent of the width.
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
    """phi's program over the rosters; it equals the program of
    desugar(phi), which is not built (see the module docstring)."""
    agents = tuple(agents)
    atoms = tuple(atoms)
    check_distinct("agent", agents)
    check_distinct("atom", atoms)
    c = _Compile({t: i for i, t in enumerate(atoms)},
                 {a: 1 << i for i, a in enumerate(agents)})
    root = core_form(phi, c)
    kinds, a1, a2, a3 = zip(*c.nodes)
    return Program(kinds, a1, a2, a3, root, agents, atoms)


# the node kind of each core class core_form emits
_KIND = {Not: K_NOT, And: K_AND, D: K_D, See: K_SEE, Sse: K_SSE}


class _Compile:
    """core_form's target for one compile_program call: the roster
    positions and every node emitted so far."""
    __slots__ = ("atoms", "agents", "nodes")

    def __init__(self, atoms, agents):
        # atom -> index, agent -> mask bit
        self.atoms, self.agents = atoms, agents
        # (kind, a1, a2, a3) -> node number, in emission order
        self.nodes = {}

    def emit(self, cls, x=0, y=0, z=0):
        if cls is Eee:
            # [eee] is [see Ag] for the whole roster Ag
            cls, x, y = See, (1 << len(self.agents)) - 1, x
        nodes = self.nodes
        return nodes.setdefault((_KIND[cls], x, y, z), len(nodes))

    def atom(self, f):
        if isinstance(f, Top):
            key = (K_TOP, 0, 0, 0)
        else:
            t = self.atoms.get(f.name)
            if t is None:
                raise KripkitError("unknown-atom", f.name)
            key = (K_ATOM, t, 0, 0)
        nodes = self.nodes
        return nodes.setdefault(key, len(nodes))

    def group(self, g):
        m = 0
        for ag in g:
            bit = self.agents.get(ag)
            if bit is None:
                raise KripkitError("unknown-agent", ag)
            m |= bit
        return m


def restrict_program(prog: Program) -> Program:
    """prog over only the agents it reads, kept in roster order: the agents
    of its D, see and sse masks, with the masks renumbered; every atom stays.
    prog itself when it reads every agent, as it does once an [eee] (a see
    node over the whole roster) occurs.

    The module docstring says why a scan of the result finds the first
    failure of prog's space."""
    # the D, see and sse nodes (kinds K_D to K_SSE) and their masks
    a1 = prog.a1
    at = [i for i, k in enumerate(prog.kinds) if K_D <= k <= K_SSE]
    masks = {a1[i] for i in at}
    amask = reduce(or_, masks, 0)
    keep = [k for k in range(len(prog.agents)) if (amask >> k) & 1]
    if len(keep) == len(prog.agents):
        return prog
    # each distinct mask renumbered once
    new = dict.fromkeys(masks, 0)
    for j, k in enumerate(keep):
        for m in masks:
            new[m] |= ((m >> k) & 1) << j
    a1 = list(a1)
    for i in at:
        a1[i] = new[a1[i]]
    return Program(prog.kinds, tuple(a1), prog.a2, prog.a3, prog.root,
                   tuple(prog.agents[k] for k in keep), prog.atoms)


def backend_name() -> str:
    """Name of the scan kernel; there is one, in pure Python."""
    return "pure"


# -- model-index codec --

def model_bits(n: int, nag: int, nat: int) -> int:
    """Index bits of an n-world model over nag agents and nat atoms."""
    return n * n * nag + n * nat


def _space_bits(n: int, nag: int, nat: int) -> int:
    """model_bits of a space that is scanned or decoded; a model has at
    least one world."""
    if n < 1:
        raise KripkitError("bounds-too-large",
                           f"{n} worlds; a model has at least 1")
    return model_bits(n, nag, nat)


def _reversed(x: int, B: int) -> int:
    """x's B low bits in reverse order."""
    return int(f"{x:0{B}b}"[::-1], 2)


def decode_index(idx: int, n: int, nag: int, nat: int):
    """Relation rows and valuations of model idx < 2**B, as (rows, vals)."""
    B = _space_bits(n, nag, nat)
    if not 0 <= idx < 1 << B:
        raise KripkitError("index-out-of-range",
                           f"model index {idx} outside [0, 2**{B}) "
                           f"at {n} worlds")
    # position j*n+v, word j's bit v, is bit B-1-(j*n+v) of idx and bit
    # j*n+v of idx reversed
    rev, mask = _reversed(idx, B), (1 << n) - 1
    words = [(rev >> (j * n)) & mask for j in range(nag * n + nat)]
    return tuple(words[:nag * n]), tuple(words[nag * n:])


def model_index(model) -> int:
    """Index of a model over w0..w{n-1}; the inverse of decode_index."""
    n = model.n
    rev = 0
    for j, word in enumerate(model.rows + model.vals):
        rev |= word << (j * n)
    return _reversed(rev, model_bits(n, len(model.agents), len(model.atoms)))


def widen_index(idx: int, n: int, keep, nag: int, nat: int) -> int:
    """Index over nag agents of model idx over the agents at the ascending
    roster positions keep: each kept agent's n*n relation bits move to its
    roster position, every other agent's relation is empty and the
    valuation bits stay."""
    nn, low = n * n, n * nat
    B, Bk = model_bits(n, nag, nat), model_bits(n, len(keep), nat)
    out = idx & ((1 << low) - 1)
    for j, k in enumerate(keep):
        out |= ((idx >> (Bk - (j + 1) * nn)) & ((1 << nn) - 1)) \
            << (B - (k + 1) * nn)
    return out


# -- scan kernel --

def _projections(L):
    """Lane vectors over 2**L lanes: entry b has bit i set iff bit b of i is."""
    lanes = (1 << (1 << L)) - 1
    out = []
    for b in range(L):
        half = 1 << b
        out.append(lanes // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half))
    return out


# the low index bits of a 2**L-lane block, highest first, for every L
_LOW_BITS = tuple(_projections(L)[::-1] for L in range(LANE_BITS + 1))


def _plan(prog):
    """The root's evaluation plan, as (steps, root reference): the steps
    the root reads and every sse step (see the module docstring). A step
    (kind, out, x, y, w, z) writes register out from the registers x, y
    and w (0 where it reads fewer) and its other argument z."""
    p = _Plan(prog)
    root = _frame(p, prog.root, 0, 0)
    # a node's register goes up, through NOTs and update bodies, to the
    # root or to the AND, D or sse step of a parent, and a meet or see
    # step's to the step that asked for it; so only a fold leaves a step
    # unread
    if not p.unread:
        return p.steps, root
    live = {root if root >= 0 else ~root}
    steps = []
    for s in reversed(p.steps):
        k, o, x, y, w, z = s
        if o in live or k == K_SSE:
            live |= {x, y, w}
            steps.append(s)
    steps.reverse()
    return steps, root


class _Plan:
    """One _plan call: the program, the steps emitted so far and the
    register of every step. The planner's functions take it as an
    argument, so no closure calls itself and a plan leaves no reference
    cycle."""
    __slots__ = ("prog", "nag", "ones", "steps", "regs", "unread")

    def __init__(self, prog):
        self.prog = prog
        self.nag = len(prog.agents)
        # register 0 holds the block's frame, 1..nat its atom values, the
        # next one R_G for the empty group and the one after it top; every
        # later one is written by its step, in plan order, if it is kept
        self.ones = 1 + len(prog.atoms)
        self.steps = []
        # (kind, x, y, w, z) of a step -> its register, and (body node,
        # frame register, sender mask) of a see or sse body planned -> its
        # reference
        self.regs = {}
        # whether a fold may have left a step unread
        self.unread = False


def _step(p, kind, x, y, w, z):
    """Register of the step (kind, x, y, w, z), emitted on first use."""
    key = (kind, x, y, w, z)
    o = p.regs.get(key)
    if o is None:
        o = p.regs[key] = p.ones + 2 + len(p.steps)
        p.steps.append((kind, o, x, y, w, z))
    return o


def _rows(p, g, f):
    """(register, agent) whose rows at offset agent*n*n are R_G(u, v) for
    every pair in frame register f: the all-ones rows for the empty group,
    a lone agent's rows of the frame itself, else one meet step per group
    and register. A frame (f, s) reads group G as G | s."""
    if not g:
        return p.ones, 0
    if not g & (g - 1):
        return f, g.bit_length() - 1
    return _step(p, K_MEET, f, 0, 0,
                 tuple(k for k in range(p.nag) if (g >> k) & 1)), 0


def _misordered(i, c):
    return KripkitError("unknown-schema",
                        f"node {i} reads node {c}, which is not before it")


def _frame(p, top, f, s):
    """Reference to node top on frame (f, s), register f under [see s]:
    register r, or ~r for the complement of register r.

    The nodes top reads on the frame are those it reaches other than
    through the body of a see or sse node. They come before it, children
    first, so one backward pass marks them and one forward pass gives each
    its reference from its children's. A see node's body is read on
    (f, s | S) and an sse node's on the frame register its step writes, by
    a call of its own (_body)."""
    prog = p.prog
    kinds, a1, a2 = prog.kinds, prog.a1, prog.a2
    need = bytearray(top + 1)
    need[top] = 1
    for i in range(top, -1, -1):
        if need[i]:
            k = kinds[i]
            if k == K_AND:
                x, y = a1[i], a2[i]
                if x >= i or y >= i:
                    raise _misordered(i, max(x, y))
                need[x] = need[y] = 1
            elif k == K_NOT or k == K_D or k == K_SSE:
                x = a1[i] if k == K_NOT else a2[i]
                if x >= i:
                    raise _misordered(i, x)
                need[x] = 1
    ref = [0] * (top + 1)
    for i in range(top + 1):
        if not need[i]:
            continue
        k = kinds[i]
        if k == K_NOT:
            ref[i] = ~ref[a1[i]]
        elif k == K_ATOM:
            ref[i] = 1 + a1[i]
        elif k == K_AND:
            a, b = ref[a1[i]], ref[a2[i]]
            if a == b or a == ~b:
                # x & x is x, and x & ~x is bottom, the complement of top
                ref[i] = a if a == b else ~(p.ones + 1)
                p.unread = True
            elif a >= 0 and b >= 0:
                ref[i] = _step(p, K_AND, min(a, b), max(a, b), 0, 0)
            elif a >= 0 or b >= 0:
                # x & ~y, the plain input first
                ref[i] = _step(p, K_ANDN, max(a, b), ~min(a, b), 0, 0)
            else:
                # ~a & ~b is ~(a | b)
                ref[i] = ~_step(p, K_OR, min(~a, ~b), max(~a, ~b), 0, 0)
        elif k == K_D:
            if not a1[i]:
                raise KripkitError("empty-group", "D node with empty mask")
            c = ref[a2[i]]
            r, ag = _rows(p, a1[i] | s, f)
            ref[i] = (_step(p, K_D, c, r, 0, ag) if c >= 0
                      else _step(p, K_DN, ~c, r, 0, ag))
        elif k == K_TOP:
            ref[i] = p.ones + 1
        elif k == K_SEE:
            body = a2[i]
            if body >= i:
                raise _misordered(i, body)
            ref[i] = _body(p, body, f, s | a1[i])
        elif k == K_SSE:
            body = prog.a3[i]
            if body >= i:
                raise _misordered(i, body)
            # the crossings chi[u] ^ chi[v] are those of ~chi
            t = ref[a2[i]]
            t = t if t >= 0 else ~t
            g = f
            if s:
                # an sse step reads every agent's rows: build the frame
                r, ag = _rows(p, s, f)
                g = _step(p, K_SEE, f, r, 0, ag)
            x = a1[i]
            r, ag = _rows(p, x, g)
            senders = tuple(j for j in range(p.nag) if (x >> j) & 1)
            g = _step(p, K_SSE, g, r, t, (ag, senders))
            ref[i] = _body(p, body, g, 0)
        else:
            raise KripkitError("unknown-schema", f"bad node kind {k}")
    return ref[top]


def _body(p, body, f, s):
    """Reference to the body of a see or sse node on frame (f, s), planned
    once per (body, frame): updates that share a frame and a body below
    them would otherwise plan it once per path."""
    got = p.regs.get((body, f, s))
    if got is None:
        got = p.regs[body, f, s] = _frame(p, body, f, s)
    return got


def _scan(prog: Program, n: int, start: int, stop: int):
    """First failure among indices [start, stop), as (index, its smallest
    failing world, models checked) or (-1, -1, checked). A block has no more
    lanes than the range has models, so one index is one lane. It builds
    its registers once; each block flips the frame's changed bits in place."""
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
    # index bits at or above L (positions below nb = B - L) are all-ones or
    # zero in a block: the frame, flipped in place, and the valuation words
    # of the first `top` atoms, sliced per block. Every other atom's word
    # holds only projections and is set once per scan.
    nb = B - L
    top = min(nat, -(-(nb - nr) // n))
    base = start - start % width
    hb = base >> L
    bits = ([lanes if (hb >> b) & 1 else 0 for b in range(nb - 1, -1, -1)]
            + _LOW_BITS[L])
    # register 0 is bits: every frame reader stops at its nr relation bits
    reg = ([bits] + [None] * top
           + [bits[i:i + n] for i in range(nr + top * n, B, n)]
           + [[lanes] * nn, [lanes] * n]
           # registers nat+3 up to the last one the plan writes
           + [None] * (steps[-1][1] - nat - 2 if steps else 0))
    neg = root < 0
    if neg:
        root = ~root
    while True:
        if top:
            reg[1:1 + top] = [bits[i:i + n]
                              for i in range(nr, nr + top * n, n)]
        for k, o, x, y, w, z in steps:
            if k == K_D:
                # out[u] = AND_v(sub[v] | ~R_G(u, v)); pairs outside R_G
                # drop out
                sub, rg = reg[x], reg[y]
                val, j = [], z * nn
                for _ in range(n):
                    acc = lanes
                    for v in sub:
                        r = rg[j]
                        if r:
                            acc &= v | ~r
                        j += 1
                    val.append(acc)
                reg[o] = val
            elif k == K_SEE:
                reg[o] = list(map(and_, reg[x],
                                  reg[y][z * nn:(z + 1) * nn] * nag))
            elif k == K_MEET:
                fr = reg[x]
                val = fr[z[0] * nn:(z[0] + 1) * nn]
                for j in z[1:]:
                    val = list(map(and_, val, fr[j * nn:(j + 1) * nn]))
                reg[o] = val
            elif k == K_ANDN:
                reg[o] = [a & ~b for a, b in zip(reg[x], reg[y])]
            elif k == K_OR:
                reg[o] = list(map(or_, reg[x], reg[y]))
            elif k == K_AND:
                reg[o] = list(map(and_, reg[x], reg[y]))
            elif k == K_DN:
                # D of ~c: sub[v] | ~r is ~(c[v] & r)
                sub, rg = reg[x], reg[y]
                val, j = [], z * nn
                for _ in range(n):
                    acc = lanes
                    for v in sub:
                        r = rg[j]
                        if r:
                            acc &= ~(v & r)
                        j += 1
                    val.append(acc)
                reg[o] = val
            else:  # K_SSE
                fr, chi, (ag, senders) = reg[x], reg[w], z
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
                keep = [r | ~v for r, v in
                        zip(reg[y][ag * nn:(ag + 1) * nn], cross)]
                if sub_form != list(map(and_, fr, keep * nag)):
                    raise KripkitError(
                        "definition-mismatch",
                        "subtractive and intersection forms disagree")
                reg[o] = sub_form
        # every register lies within the lanes
        bad = (reduce(or_, reg[root]) if neg
               else lanes ^ reduce(and_, reg[root]))
        if bad and (base < start or base + width > stop):
            # only lanes inside [start, stop) count
            lo, hi = max(start - base, 0), min(stop - base, width)
            bad &= ((1 << hi) - 1) ^ ((1 << lo) - 1)
        if bad:
            i = (bad & -bad).bit_length() - 1
            for u, x in enumerate(reg[root]):
                # the root is false where its register's bit is clear, or
                # set when the root reads the register complemented
                if (x >> i) & 1 == neg:
                    return base + i, u, base + i - start + 1
        base += width
        if base >= stop:
            return -1, -1, stop - start
        # the next block's high bits: hb + 1 flips the trailing ones of hb
        # and the zero above them
        flips = (hb ^ (hb + 1)).bit_length()
        hb += 1
        for j in range(nb - flips, nb):
            bits[j] ^= lanes


def run_range(prog: Program, n: int, start: int, stop: int):
    """First failure among model indices [start, stop), as
    (index, world, checked) or (-1, -1, checked); both ends lie in
    [0, 2**B]."""
    B = _space_bits(n, len(prog.agents), len(prog.atoms))
    if not (0 <= start <= 1 << B and 0 <= stop <= 1 << B):
        raise KripkitError("index-out-of-range",
                           f"range [{start}, {stop}) outside [0, 2**{B}] "
                           f"at {n} worlds")
    return _scan(prog, n, start, stop)


def run_one(prog: Program, n: int, idx: int):
    """Smallest world where the root fails on model idx, or -1; idx lies
    in [0, 2**B)."""
    return run_range(prog, n, idx, idx + 1)[1]
