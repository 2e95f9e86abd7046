"""Board state for biased odd-cycle games on the complete graph K_n.

Edges of K_n are addressed by a dense integer id in lexicographic order of
their endpoint pairs.  A GameState tracks who owns each edge, the bipartition
(V1, V2) of the builder's graph, the set R of untouched vertices, and a number
of incremental counters (blocker degrees by part, threat edges, saved cross
edges) that the strategies and invariant hooks read on every move.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import RuleViolation, StateError

UNCLAIMED = 0
BUILDER = 1
BLOCKER = 2


class Variant(str, Enum):
    MAKER_BREAKER = "maker-breaker"
    CLIENT_WAITER = "client-waiter"


class Rules(str, Enum):
    FREE = "free"
    CONNECTED = "connected"


class Role(str, Enum):
    """Side identifiers. Builder is Maker or Client, blocker is Breaker or Waiter."""

    BUILDER = "builder"
    BLOCKER = "blocker"

    @property
    def opponent(self) -> "Role":
        return Role.BLOCKER if self is Role.BUILDER else Role.BUILDER


class Status(str, Enum):
    IN_PROGRESS = "in-progress"
    BUILDER_WIN = "builder-win"
    BLOCKER_WIN = "blocker-win"


class Reason(str, Enum):
    ODD_CYCLE_CLOSED = "odd-cycle-closed"
    BOARD_EXHAUSTED = "board-exhausted"
    BUILDER_FORFEIT = "builder-forfeit"
    NO_LEGAL_BUILDER_MOVE = "no-legal-builder-move"
    NO_OFFERABLE_EDGES = "no-offerable-edges"
    # Not part of the original reason list: a blocker strategy may concede,
    # and the engine needs an honest label for that ending.
    BLOCKER_FORFEIT = "blocker-forfeit"


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=64)
def _edge_tables(n: int):
    """Return (pairs, index) where pairs[eid] = (u, v) and index[u][v] = eid."""
    pairs = []
    index = [[-1] * n for _ in range(n)]
    eid = 0
    for u in range(n):
        for v in range(u + 1, n):
            pairs.append((u, v))
            index[u][v] = index[v][u] = eid
            eid += 1
    return tuple(pairs), tuple(tuple(row) for row in index)


def edge_index(u: int, v: int, n: int) -> int:
    """Dense id of edge {u, v} in lexicographic order over K_n."""
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"not an edge of K_{n}: ({u}, {v})")
    return _edge_tables(n)[1][u][v]


def edge_endpoints(eid: int, n: int) -> tuple[int, int]:
    """Endpoint pair (u, v), u < v, of the edge with the given id."""
    pairs = _edge_tables(n)[0]
    if not (0 <= eid < len(pairs)):
        raise ValueError(f"edge id {eid} out of range for K_{n}")
    return pairs[eid]


class ParityForest:
    """Union-find with parity bits.

    Every builder edge joins vertices on opposite sides of its component's
    bipartition, so each vertex stores the parity of its path to the root.
    Two vertices close an odd cycle exactly when they share a root and a
    parity.
    """

    __slots__ = ("parent", "rank", "parity")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n

    def find(self, v: int) -> tuple[int, int]:
        """Return (root, parity of v relative to the root), compressing paths."""
        up = self.parent[v]
        if self.parent[up] == up:
            return up, self.parity[v]
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        par = 0
        for w in reversed(path):
            par ^= self.parity[w]
            self.parent[w] = root
            self.parity[w] = par
        # par is now the parity of the last vertex on the path, i.e. the input.
        return root, (par if path else 0)

    def same_side(self, u: int, v: int) -> bool:
        """True when u and v are connected with equal parity."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        return ru == rv and pu == pv

    def connected(self, u: int, v: int) -> bool:
        return self.find(u)[0] == self.find(v)[0]

    def union(self, u: int, v: int) -> bool:
        """Join u and v with opposite parity. Returns False if already connected."""
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return False
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        # rv hangs under ru; parity chosen so that u and v end up opposite.
        self.parent[rv] = ru
        self.parity[rv] = pu ^ pv ^ 1
        if self.rank[ru] == self.rank[rv]:
            self.rank[ru] += 1
        return True

    def clone(self) -> "ParityForest":
        other = ParityForest.__new__(ParityForest)
        other.parent = self.parent[:]
        other.rank = self.rank[:]
        other.parity = self.parity[:]
        return other


@dataclass(frozen=True)
class GameConfig:
    """Immutable description of one game."""

    n: int
    b: int
    variant: Variant = Variant.MAKER_BREAKER
    rules: Rules = Rules.FREE
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "rules", Rules(self.rules))
        for name in ("n", "b"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 3:
            raise ValueError("need n >= 3 for an odd cycle to exist")
        if self.variant is Variant.MAKER_BREAKER and self.b < 1:
            raise ValueError("Maker-Breaker bias b must be >= 1")
        if self.variant is Variant.CLIENT_WAITER and self.b < 0:
            raise ValueError("Client-Waiter bias b must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "b": self.b,
            "variant": self.variant.value,
            "rules": self.rules.value,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GameConfig":
        return cls(n=d["n"], b=d["b"], variant=Variant(d["variant"]),
                   rules=Rules(d["rules"]), seed=d.get("seed"))


class GameState:
    """Mutable position of one game.

    Vertex classes: part[v] is 1 or 2 for vertices of the builder's graph and
    0 for untouched vertices (the set R).  Column indexing for the blocker
    degree table is 0 -> V1, 1 -> V2, 2 -> R.
    """

    def __init__(self, config: GameConfig):
        self.config = config
        n = config.n
        self.n = n
        self.E = edge_count(n)
        self.pairs, self.eindex = _edge_tables(n)
        self.own = bytearray(self.E)
        self.pf = ParityForest(n)
        self.part = [0] * n
        self.parts: list[set[int]] = [set(), set()]
        self.r_set: set[int] = set(range(n))
        self.status = Status.IN_PROGRESS
        self.reason: Reason | None = None
        self.round_s = 0
        self.turn_k = 0
        self.unclaimed_count = self.E
        self.builder_edge_count = 0
        self.blocker_edge_count = 0
        self.builder_cross_count = 0
        self.builder_cyclic = False
        # blocker degree of each vertex into V1 / V2 / R
        self.deg_blk = [[0, 0, 0] for _ in range(n)]
        # number of builder edges at each vertex
        self.builder_deg = [0] * n
        # unclaimed edges with both endpoints in the same part
        self.threat_edges: set[int] = set()
        # cross pairs (V1 x V2) not claimed by the blocker, builder edges included
        self.saved_not_blocker = 0
        # blocker edge counts: between each part and R, and inside V
        self.e_blk_vr = [0, 0]
        self.e_blk_vv = 0
        # unclaimed edges incident to the builder's vertex set
        self.legal_incident: set[int] = set()
        # R vertices bucketed by blocker degree into each part
        self.deg_index: list[dict[int, set[int]]] = [{0: set(range(n))}, {0: set(range(n))}]
        self.deg_min = [0, 0]
        self.deg_max = [0, 0]

    # -- basic queries ---------------------------------------------------

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.pairs[eid]

    def builder_vertices(self) -> set[int]:
        return self.parts[0] | self.parts[1]

    def col(self, v: int) -> int:
        """Degree-table column of vertex v: 0 or 1 for its part, 2 for R."""
        p = self.part[v]
        return p - 1 if p else 2

    def closes_odd_cycle(self, eid: int) -> bool:
        """Would claiming eid give the builder an odd cycle? Edge must be unclaimed."""
        if self.own[eid] != UNCLAIMED:
            raise StateError(f"edge {eid} is already claimed")
        u, v = self.pairs[eid]
        # every builder edge joins the two parts, so part labels agree with
        # parity inside each component
        p = self.part[u]
        return p != 0 and p == self.part[v] and self.pf.find(u)[0] == self.pf.find(v)[0]

    def legal_builder_moves(self) -> set[int]:
        """Edge ids the builder may claim now under the configured rules."""
        if self.config.rules is Rules.CONNECTED and self.builder_edge_count > 0:
            return set(self.legal_incident)
        return {e for e in range(self.E) if self.own[e] == UNCLAIMED}

    def has_legal_builder_move(self) -> bool:
        if self.config.rules is Rules.CONNECTED and self.builder_edge_count > 0:
            return bool(self.legal_incident)
        return self.unclaimed_count > 0

    def saved_unclaimed(self) -> int:
        """Unclaimed edges between V1 and V2 (the budget in the saving bound)."""
        return self.saved_not_blocker - self.builder_cross_count

    def degree_spread(self, part_idx: int) -> int:
        """max - min of blocker degree into a part over all of R (0 if R empty)."""
        if not self.r_set:
            return 0
        return self.deg_max[part_idx] - self.deg_min[part_idx]

    def digest(self) -> str:
        return hashlib.sha256(bytes(self.own)).hexdigest()

    # -- degree index maintenance ----------------------------------------

    def _index_bump(self, v: int, i: int, old: int):
        idx = self.deg_index[i]
        idx[old].discard(v)
        idx.setdefault(old + 1, set()).add(v)
        if old + 1 > self.deg_max[i]:
            self.deg_max[i] = old + 1
        if old == self.deg_min[i] and not idx[old]:
            self._index_normalize(i)

    def _index_drop(self, v: int, i: int):
        idx = self.deg_index[i]
        d = self.deg_blk[v][i]
        bucket = idx.get(d)
        if bucket is not None:
            bucket.discard(v)
        self._index_normalize(i)

    def _index_normalize(self, i: int):
        if not self.r_set:
            self.deg_min[i] = self.deg_max[i] = 0
            return
        idx = self.deg_index[i]
        lo, hi = self.deg_min[i], self.deg_max[i]
        while lo < hi and not idx.get(lo):
            lo += 1
        while hi > lo and not idx.get(hi):
            hi -= 1
        self.deg_min[i], self.deg_max[i] = lo, hi

    def _rebuild_part_counters(self):
        """Recompute everything derived from part labels. Used after relabelling."""
        n = self.n
        for v in range(n):
            self.deg_blk[v] = [0, 0, 0]
        self.e_blk_vr = [0, 0]
        self.e_blk_vv = 0
        self.saved_not_blocker = 0
        self.builder_cross_count = 0
        self.threat_edges.clear()
        for eid in range(self.E):
            u, v = self.pairs[eid]
            o = self.own[eid]
            cu, cv = self.col(u), self.col(v)
            if o == BLOCKER:
                self.deg_blk[u][cv] += 1
                self.deg_blk[v][cu] += 1
                if cu < 2 and cv < 2:
                    self.e_blk_vv += 1
                elif cu < 2:
                    self.e_blk_vr[cu] += 1
                elif cv < 2:
                    self.e_blk_vr[cv] += 1
            else:
                if cu < 2 and cv < 2 and cu != cv:
                    self.saved_not_blocker += 1
                    if o == BUILDER:
                        self.builder_cross_count += 1
                if o == UNCLAIMED and cu < 2 and cu == cv:
                    self.threat_edges.add(eid)
        self.deg_index = [{}, {}]
        for i in (0, 1):
            for v in self.r_set:
                self.deg_index[i].setdefault(self.deg_blk[v][i], set()).add(v)
            if self.r_set:
                degs = [self.deg_blk[v][i] for v in self.r_set]
                self.deg_min[i], self.deg_max[i] = min(degs), max(degs)
            else:
                self.deg_min[i] = self.deg_max[i] = 0

    # -- mutation ---------------------------------------------------------

    def _promote(self, y: int, p: int):
        """Move untouched vertex y into part p (1 or 2)."""
        pi = p - 1
        oi = 1 - pi
        self.r_set.discard(y)
        for i in (0, 1):
            self._index_drop(y, i)
        self.part[y] = p
        # every unclaimed edge at y is now incident to the builder's graph, and
        # blocker edges at y change classification: R->R becomes V->R seen
        # from the neighbour, R->V becomes V->V
        dy = self.deg_blk[y]
        row = self.eindex[y]
        own = self.own
        for w in range(self.n):
            if w == y:
                continue
            o = own[row[w]]
            if o == UNCLAIMED:
                self.legal_incident.add(row[w])
            elif o == BLOCKER:
                cw = self.col(w)
                dw = self.deg_blk[w]
                dw[2] -= 1
                dw[pi] += 1
                if cw == 2:
                    if w in self.r_set:
                        self._index_bump(w, pi, dw[pi] - 1)
                    self.e_blk_vr[pi] += 1
                else:
                    self.e_blk_vr[cw] -= 1
                    self.e_blk_vv += 1
        # new same-part pairs may be live threats
        for w in self.parts[pi]:
            e = row[w]
            if own[e] == UNCLAIMED:
                self.threat_edges.add(e)
        # cross pairs not held by the blocker
        self.saved_not_blocker += len(self.parts[oi]) - dy[oi]
        self.parts[pi].add(y)

    def _flip_vertices(self, flips: list[int]):
        """Relabel the given builder vertices into the opposite part."""
        for w in flips:
            p = self.part[w]
            self.parts[p - 1].discard(w)
            self.part[w] = 3 - p
            self.parts[2 - p].add(w)
        self._rebuild_part_counters()

    def check_claim(self, role: Role, eid: int):
        """Raise StateError when the game is over, and RuleViolation for a
        claimed or out-of-range edge or a builder move that breaks the
        connectedness rule."""
        if self.status is not Status.IN_PROGRESS:
            raise StateError("game is over")
        if not (0 <= eid < self.E):
            raise RuleViolation(f"edge id {eid} out of range")
        if self.own[eid] != UNCLAIMED:
            raise RuleViolation(f"edge {eid} is already claimed")
        if (role is Role.BUILDER and self.config.rules is Rules.CONNECTED
                and self.builder_edge_count > 0 and eid not in self.legal_incident):
            raise RuleViolation(
                f"connected rules: edge {eid} not incident to the builder's graph")

    def apply_claim(self, role: Role, eid: int):
        """Claim an edge for a side, after check_claim, updating every derived
        structure."""
        self.check_claim(role, eid)
        u, v = self.pairs[eid]
        if role is Role.BUILDER:
            self.own[eid] = BUILDER
            self.unclaimed_count -= 1
            self.builder_edge_count += 1
            self.threat_edges.discard(eid)
            self.legal_incident.discard(eid)
            self.builder_deg[u] += 1
            self.builder_deg[v] += 1
            pu, pv = self.part[u], self.part[v]
            if pu == 0 and pv == 0:
                self.pf.union(u, v)
                self._promote(min(u, v), 1)
                self._promote(max(u, v), 2)
                self.builder_cross_count += 1
            elif pu == 0 or pv == 0:
                if pu == 0:
                    u, v = v, u
                    pu, pv = pv, pu
                self.pf.union(u, v)
                self._promote(v, 3 - pu)
                self.builder_cross_count += 1
            else:
                ru, par_u = self.pf.find(u)
                rv, par_v = self.pf.find(v)
                if ru == rv:
                    if par_u == par_v:
                        self.status = Status.BUILDER_WIN
                        self.reason = Reason.ODD_CYCLE_CLOSED
                    else:
                        self.builder_cyclic = True
                        self.builder_cross_count += 1
                else:
                    # joining two components; labels must disagree across eid
                    if pu == pv:
                        comp_u = [w for w in range(self.n)
                                  if self.part[w] and self.pf.find(w)[0] == ru]
                        comp_v = [w for w in range(self.n)
                                  if self.part[w] and self.pf.find(w)[0] == rv]
                        self.pf.union(u, v)
                        self._flip_vertices(comp_v if len(comp_v) <= len(comp_u) else comp_u)
                    else:
                        self.pf.union(u, v)
                        self.builder_cross_count += 1
        else:
            self.own[eid] = BLOCKER
            self.unclaimed_count -= 1
            self.blocker_edge_count += 1
            self.threat_edges.discard(eid)
            self.legal_incident.discard(eid)
            cu, cv = self.col(u), self.col(v)
            self.deg_blk[u][cv] += 1
            self.deg_blk[v][cu] += 1
            if cu == 2 and cv < 2:
                self._index_bump(u, cv, self.deg_blk[u][cv] - 1)
            if cv == 2 and cu < 2:
                self._index_bump(v, cu, self.deg_blk[v][cu] - 1)
            if cu < 2 and cv < 2:
                self.e_blk_vv += 1
                if cu != cv:
                    self.saved_not_blocker -= 1
            elif cu < 2:
                self.e_blk_vr[cu] += 1
            elif cv < 2:
                self.e_blk_vr[cv] += 1

    def set_result(self, status: Status, reason: Reason):
        if self.status is not Status.IN_PROGRESS:
            raise StateError("result already set")
        self.status = status
        self.reason = reason

    def clone(self) -> "GameState":
        other = GameState.__new__(GameState)
        other.config = self.config
        other.n = self.n
        other.E = self.E
        other.pairs = self.pairs
        other.eindex = self.eindex
        other.own = bytearray(self.own)
        other.pf = self.pf.clone()
        other.part = self.part[:]
        other.parts = [set(self.parts[0]), set(self.parts[1])]
        other.r_set = set(self.r_set)
        other.status = self.status
        other.reason = self.reason
        other.round_s = self.round_s
        other.turn_k = self.turn_k
        other.unclaimed_count = self.unclaimed_count
        other.builder_edge_count = self.builder_edge_count
        other.blocker_edge_count = self.blocker_edge_count
        other.builder_cross_count = self.builder_cross_count
        other.builder_cyclic = self.builder_cyclic
        other.deg_blk = [row[:] for row in self.deg_blk]
        other.builder_deg = self.builder_deg[:]
        other.threat_edges = set(self.threat_edges)
        other.saved_not_blocker = self.saved_not_blocker
        other.e_blk_vr = self.e_blk_vr[:]
        other.e_blk_vv = self.e_blk_vv
        other.legal_incident = set(self.legal_incident)
        other.deg_index = [{d: set(s) for d, s in self.deg_index[0].items()},
                           {d: set(s) for d, s in self.deg_index[1].items()}]
        other.deg_min = self.deg_min[:]
        other.deg_max = self.deg_max[:]
        return other


def closes_odd_cycle(state: GameState, eid: int) -> bool:
    return state.closes_odd_cycle(eid)
