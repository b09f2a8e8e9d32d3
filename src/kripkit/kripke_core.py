"""Finite multi-agent Kripke models with dense bitset relations.

Worlds are canonicalized to indices 0..n-1; display names live in a side
table on the model. Relations are directed: a diagram's double arrow is two
pairs, and reflexive loops are explicit pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

Relation = frozenset  # of (int, int) world-index pairs


class KripkitError(ValueError):
    """Error with a stable machine-readable code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


@dataclass(frozen=True)
class Model:
    """Immutable model: world name table, agent/atom rosters, bitset rows.

    rows[a * n + w] is the successor bitmask of world w under agent index a;
    vals[t] is the bitmask of worlds where atom index t holds.
    """

    worlds: tuple
    agents: tuple
    atoms: tuple
    rows: tuple
    vals: tuple

    # -- index helpers --
    @property
    def n(self) -> int:
        return len(self.worlds)

    def world_index(self, name) -> int:
        if isinstance(name, int):
            if 0 <= name < self.n:
                return name
            raise KripkitError("dangling-world", f"index {name}")
        try:
            return self.worlds.index(name)
        except ValueError:
            raise KripkitError("dangling-world", str(name)) from None

    def agent_index(self, agent: str) -> int:
        try:
            return self.agents.index(agent)
        except ValueError:
            raise KripkitError("unknown-agent", agent) from None

    def atom_index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise KripkitError("unknown-atom", atom) from None

    # -- relation access --
    def row(self, agent_idx: int, w: int) -> int:
        return self.rows[agent_idx * self.n + w]

    def relation(self, agent: str) -> Relation:
        a = self.agent_index(agent)
        return rows_to_pairs(self.rows[a * self.n:(a + 1) * self.n])

    @property
    def relations(self) -> dict:
        return {ag: self.relation(ag) for ag in self.agents}

    @property
    def valuation(self) -> dict:
        return {at: frozenset(self.worlds[w] for w in _bits(self.vals[t]))
                for t, at in enumerate(self.atoms)}

    def atom_mask(self, atom: str) -> int:
        return self.vals[self.atom_index(atom)]

    def with_rows(self, rows: Iterable[int]) -> "Model":
        """Same worlds/valuation, fresh relations."""
        rows = tuple(rows)
        if len(rows) != len(self.agents) * self.n:
            raise KripkitError("row-count-mismatch",
                       f"{len(rows)} rows for {len(self.agents)} agents "
                       f"x {self.n} worlds")
        return Model(self.worlds, self.agents, self.atoms, rows, self.vals)

    # -- construction --
    @staticmethod
    def build(worlds, agents, atoms, relations: Mapping,
              valuation: Mapping) -> "Model":
        """Build from pair sets / world sets; names or indices accepted."""
        worlds = tuple(worlds)
        agents = tuple(agents)
        atoms = tuple(atoms)
        n = len(worlds)
        widx = {w: i for i, w in enumerate(worlds)}

        def wi(x):
            if isinstance(x, int):
                if not 0 <= x < n:
                    raise KripkitError("dangling-world", f"index {x}")
                return x
            if x not in widx:
                raise KripkitError("dangling-world", str(x))
            return widx[x]

        for ag in relations:
            if ag not in agents:
                raise KripkitError("unknown-agent", str(ag))
        rows = [0] * (len(agents) * n)
        for a, ag in enumerate(agents):
            if ag not in relations:
                raise KripkitError("missing-agent-relation", ag)
            for (u, v) in relations[ag]:
                rows[a * n + wi(u)] |= 1 << wi(v)
        vals = [0] * len(atoms)
        for t, at in enumerate(atoms):
            for w in valuation.get(at, ()):
                vals[t] |= 1 << wi(w)
        for at in valuation:
            if at not in atoms:
                raise KripkitError("unknown-atom", str(at))
        m = Model(worlds, agents, atoms, tuple(rows), tuple(vals))
        validate_model(m)
        return m


@dataclass(frozen=True)
class PointedModel:
    model: Model
    world: int

    def __post_init__(self):
        if not 0 <= self.world < self.model.n:
            raise KripkitError("dangling-world", f"point {self.world}")


def _bits(mask: int):
    w = 0
    while mask:
        if mask & 1:
            yield w
        mask >>= 1
        w += 1


def rows_to_pairs(rows) -> Relation:
    return frozenset((u, v) for u, row in enumerate(rows) for v in _bits(row))


def pairs_to_rows(pairs, n: int) -> tuple:
    rows = [0] * n
    for (u, v) in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise KripkitError("dangling-world",
                               f"pair ({u}, {v}) outside {n} worlds")
        rows[u] |= 1 << v
    return tuple(rows)


def check_distinct(kind: str, names) -> None:
    """A roster names each agent or atom once; the kernel and the reference
    semantics would otherwise read different positions for a name."""
    if len(set(names)) < len(names):
        dups = sorted({x for x in names if names.count(x) > 1})
        raise KripkitError("duplicate-roster-entry",
                           f"{kind} listed more than once: {', '.join(dups)}")


def validate_model(model: Model) -> None:
    """Raise on any structural invariant violation."""
    n = model.n
    if n == 0:
        raise KripkitError("dangling-world", "empty world set")
    if len(set(model.worlds)) != n:
        raise KripkitError("dangling-world", "duplicate world names")
    check_distinct("agent", model.agents)
    check_distinct("atom", model.atoms)
    if len(model.rows) != len(model.agents) * n:
        raise KripkitError("missing-agent-relation",
                   f"{len(model.rows)} rows for {len(model.agents)} agents")
    full = (1 << n) - 1
    for i, row in enumerate(model.rows):
        if row & ~full:
            raise KripkitError("dangling-world", f"row {i} points outside W")
    if len(model.vals) != len(model.atoms):
        raise KripkitError("unknown-atom", "valuation arity mismatch")
    for t, v in enumerate(model.vals):
        if v & ~full:
            raise KripkitError("dangling-world", f"valuation of {model.atoms[t]}")


def distributed_rows(model: Model, gmask: int) -> tuple:
    """Successor rows of R_{D,G} for the agent bitmask gmask (nonempty)."""
    if gmask == 0:
        raise KripkitError("empty-group")
    n = model.n
    out = None
    a = 0
    m = gmask
    while m:
        if m & 1:
            seg = model.rows[a * n:(a + 1) * n]
            out = list(seg) if out is None else [x & y for x, y in zip(out, seg)]
        m >>= 1
        a += 1
    return tuple(out)


def group_mask(model: Model, G) -> int:
    mask = 0
    for ag in G:
        mask |= 1 << model.agent_index(ag)
    return mask


def distributed_relation(model: Model, G) -> Relation:
    """R_{D,G}: intersection of the relations of the agents in G."""
    return rows_to_pairs(distributed_rows(model, group_mask(model, G)))


def image(rel: Relation, w: int) -> frozenset:
    """Successor set {u | (w,u) in rel}."""
    return frozenset(v for (u, v) in rel if u == w)


def relation_properties(rel: Relation, n_worlds: int) -> dict:
    rows = pairs_to_rows(rel, n_worlds)
    full = (1 << n_worlds) - 1
    reflexive = all((rows[w] >> w) & 1 for w in range(n_worlds))
    symmetric = all((rows[v] >> u) & 1 for (u, v) in rel)
    transitive = True
    euclidean = True
    for u in range(n_worlds):
        acc = 0
        for v in _bits(rows[u]):
            acc |= rows[v]
        if rows[u] | acc != rows[u]:  # some successor's successor escapes
            transitive = False
        # euclidean: every pair of successors of u sees each other
        for v in _bits(rows[u]):
            if rows[u] & ~rows[v] & full:
                euclidean = False
    return {"reflexive": reflexive, "symmetric": symmetric,
            "transitive": transitive, "euclidean": euclidean}


# -- text format --

# the keys a model text gives on one line each; rel and val lines add up
_ONCE = ("worlds", "agents", "atoms", "point")


def parse_model(text: str):
    """Parse the line-based model format. Returns (Model, point_index_or_None)."""
    once = {}
    rels = {}
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise KripkitError("syntax-error", f"line {lineno}: missing ':'")
        head, _, rest = line.partition(":")
        head = head.strip()
        toks = rest.split()
        if head in _ONCE:
            if head in once:
                raise KripkitError("syntax-error",
                                   f"line {lineno}: second '{head}:' line")
            if head == "point" and len(toks) != 1:
                raise KripkitError("syntax-error",
                                   f"line {lineno}: point wants one world")
            once[head] = toks
        elif head.startswith("rel "):
            ag = head[4:].strip()
            pairs = rels.setdefault(ag, [])
            for tk in toks:
                if "-" not in tk:
                    raise KripkitError("syntax-error", f"line {lineno}: pair '{tk}'")
                u, _, v = tk.partition("-")
                pairs.append((u, v))
        elif head.startswith("val "):
            vals.setdefault(head[4:].strip(), []).extend(toks)
        else:
            raise KripkitError("syntax-error",
                               f"line {lineno}: unknown key '{head}'")
    if not {"worlds", "agents", "atoms"} <= once.keys():
        raise KripkitError("syntax-error", "missing worlds:/agents:/atoms: header")
    m = Model.build(once["worlds"], once["agents"], once["atoms"], rels, vals)
    point = once.get("point")
    return m, (m.world_index(point[0]) if point is not None else None)


def serialize_model(model: Model, point: Optional[int] = None) -> str:
    """Inverse of parse_model, deterministic output."""
    out = []
    out.append("worlds: " + " ".join(model.worlds))
    out.append("agents: " + " ".join(model.agents))
    out.append("atoms: " + " ".join(model.atoms))
    n = model.n
    for a, ag in enumerate(model.agents):
        pairs = [f"{model.worlds[u]}-{model.worlds[v]}"
                 for u in range(n) for v in _bits(model.row(a, u))]
        out.append(f"rel {ag}: " + " ".join(pairs))
    for t, at in enumerate(model.atoms):
        ws = [model.worlds[w] for w in _bits(model.vals[t])]
        out.append(f"val {at}: " + " ".join(ws))
    if point is not None:
        out.append("point: " + model.worlds[point])
    return "\n".join(out) + "\n"
