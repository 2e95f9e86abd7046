"""Reference strategies, baselines, and the invariant hooks that audit them.

Builder-side strategies return claim/choose actions tagged with the branch of
the strategy that produced them; blocker-side strategies likewise.  All
tie-breaks are by lowest vertex or edge id so play is reproducible.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from operator import itemgetter

from .board import BLOCKER, UNCLAIMED, GameState, Reason, Role, Status, Variant
from .engine import Choose, ClaimEdge, Forfeit, GameHook, Move, Offer, Transcript
from .errors import StateError


class Strategy:
    """Base: strategies may carry per-game state, created fresh per game."""

    def start(self, state: GameState):
        pass

    def state_key(self):
        """Hashable summary of internal state, for solver memoization."""
        return None

    def snapshot(self):
        """Checkpoint of internal state; paired with restore for tree search."""
        return None

    def restore(self, snap):
        pass


# -- odd-cycle builder (Maker side) ------------------------------------------


class MakerOddCycle(Strategy):
    """Hub-growing Maker strategy.

    Keeps a list of hub vertices (all in part 1) whose claimed edges fan out
    into blocks of part-2 vertices.  Priorities each round: close an odd cycle
    if possible, otherwise grow the current hub's star into the untouched set,
    otherwise promote a new hub that still has enough unclaimed room, and
    otherwise concede.

    A new hub u is eligible while u has an unclaimed edge into part 2 and at
    most |R| - b - 2 of its edges into the rest of the untouched set are
    blocked, which leaves at least b+1 unclaimed u-R edges after promotion.
    """

    def __init__(self):
        self.hubs: list[int] = []
        self.blocks: list[set[int]] = []

    def start(self, state: GameState):
        self.hubs = [0]
        self.blocks = [set()]

    @property
    def hub(self) -> int:
        return self.hubs[-1]

    def state_key(self):
        return tuple(self.hubs)

    def snapshot(self):
        return list(self.hubs), [set(blk) for blk in self.blocks]

    def restore(self, snap):
        self.hubs = list(snap[0])
        self.blocks = [set(blk) for blk in snap[1]]

    def claim_edge(self, state: GameState):
        b = state.config.b
        if state.threat_edges:
            return ClaimEdge(min(state.threat_edges)), "maker:win"
        w = self.hub
        row = state.eindex[w]
        for v in sorted(state.r_set):
            if v != w and state.own[row[v]] == UNCLAIMED:
                self.blocks[-1].add(v)
                return ClaimEdge(row[v]), "maker:grow"
        # current hub is exhausted; find a promotable vertex
        r = len(state.r_set)
        part2 = len(state.parts[1])
        for u in sorted(state.r_set):
            if state.deg_blk[u][1] >= part2:
                continue  # no unclaimed edge into part 2
            if state.deg_blk[u][2] > r - b - 2:
                continue  # not enough room left around u
            urow = state.eindex[u]
            for y in sorted(state.parts[1]):
                if state.own[urow[y]] == UNCLAIMED:
                    self.hubs.append(u)
                    self.blocks.append(set())
                    return ClaimEdge(urow[y]), "maker:new-hub"
        return Forfeit(), "maker:forfeit"


# -- balancing blocker (Breaker side, connected game) --------------------------


class BreakerConnected(Strategy):
    """Degree-balancing Breaker for the connected game.

    Each claim: cover an unclaimed same-part pair if one exists (concede when
    they outnumber the claims left this turn); otherwise keep the blocked
    degrees of untouched vertices level, favouring the part with fewer blocked
    edges toward the untouched set; near the end sweep whole part-R interfaces
    when they fit into the current turn.

    The strategy keeps no state of its own; it reads the board's counters
    and relies on these invariants of GameState:
    - an untouched vertex has no builder edge, so v in R has
      len(parts[i]) - deg_blk[v][i] unclaimed edges into part i, and w in
      part i has len(r_set) - deg_blk[w][2] unclaimed edges into R;
    - deg_index[i][d] holds exactly the R vertices whose blocker degree into
      part i is d, and deg_min[i] / deg_max[i] are the least and greatest
      such degree over a non-empty R.
    """

    def claim_edge(self, state: GameState, claims_left: int):
        threats = state.threat_edges
        if threats:
            if len(threats) > claims_left:
                return Forfeit(), "breaker:forfeit"
            return ClaimEdge(min(threats)), "breaker:block-threat"
        b = state.config.b
        r = len(state.r_set)
        i1 = 0 if state.e_blk_vr[0] <= state.e_blk_vr[1] else 1
        i2 = 1 - i1
        if r <= b:
            for i in (i1, i2):
                cnt = r * len(state.parts[i]) - state.e_blk_vr[i]
                if 1 <= cnt <= claims_left:
                    return ClaimEdge(self._lowest_part_r_edge(state, i)), "breaker:endgame-sweep"
        pick = self._balance_pick(state, i1, i2)
        if pick is not None:
            return ClaimEdge(pick), "breaker:balance-low"
        pick = self._balance_pick(state, i2, i1, secondary=False)
        if pick is not None:
            return ClaimEdge(pick), "breaker:balance-high"
        eid = state.own.find(UNCLAIMED)
        if eid < 0:
            raise StateError("no unclaimed edge left for the blocker")
        return ClaimEdge(eid), "breaker:fallback"

    def _lowest_part_r_edge(self, state, i):
        """Lowest unclaimed edge between R and part i; the caller has counted
        at least one.  Both ends of such an edge still have an open edge of
        the interface by their counters, so the lowest edge starts at the
        least vertex x that has one, and ends at x's least open partner."""
        deg = state.deg_blk
        part = state.parts[i]
        r_set = state.r_set
        size, r = len(part), len(r_set)
        x = min(min(v for v in r_set if deg[v][i] < size),
                min(w for w in part if deg[w][2] < r))
        return self._lowest_open_edge(state, x, part if x in r_set else r_set)

    def _balance_pick(self, state, i, j, secondary=True):
        """Edge from the R vertex of least blocker degree into part i to the
        lowest part-i vertex it still reaches.  Ties go to the widest gap
        deg_blk[v][j] - deg_blk[v][i] when secondary, then to the lowest v."""
        part = state.parts[i]
        if not state.r_set or not part:
            return None
        d = state.deg_min[i]
        if d >= len(part):
            return None  # every untouched vertex is fully blocked toward part i
        bucket = state.deg_index[i][d]
        if secondary:
            # the bucket shares d, so the widest gap is the largest degree into j
            index_j = state.deg_index[j]
            for dj in range(state.deg_max[j], state.deg_min[j] - 1, -1):
                common = bucket.intersection(index_j.get(dj, ()))
                if common:
                    v = min(common)
                    break
        else:
            v = min(bucket)
        return self._lowest_open_edge(state, v, part)

    @staticmethod
    def _lowest_open_edge(state, v, others):
        """Lowest unclaimed edge from v to a vertex of others (edge ids grow
        with the other endpoint); the caller knows that one exists."""
        row = state.eindex[v]
        own = state.own
        for w in sorted(others):
            if own[row[w]] == UNCLAIMED:
                return row[w]


# -- threat-keeping builder (Client side, connected game) ----------------------


@dataclass
class CriticalReport:
    """Untouched vertices whose access to a part is fully blocked."""

    critical: tuple[set[int], set[int]]

    @property
    def critical_parts(self) -> list[int]:
        return [i for i in (0, 1) if self.critical[i]]


def compute_critical(state: GameState) -> CriticalReport:
    """A vertex v in R is critical to a part when every v-part edge is blocked."""
    crit = (set(), set())
    for i in (0, 1):
        size = len(state.parts[i])
        if size == 0:
            continue
        for v in state.r_set:
            if state.deg_blk[v][i] >= size:
                crit[i].add(v)
    return CriticalReport(critical=crit)


class ClientConnected(Strategy):
    """Client strategy for the connected monotone game.

    Choice order within an offer: a winning edge; an edge that leaves a live
    same-part pair on the board afterwards; an edge from a non-critical part
    to an untouched vertex; any edge touching an untouched vertex; concede.

    lookahead selects how offer-mates are treated when testing whether a
    same-part pair stays live: "post-round" hands the rejected edges to the
    blocker before checking, "claim-only" evaluates the board right after
    the chosen claim.  Exhaustive search at n=5, b=1 shows claim-only can be
    forced to concede while post-round wins every line, so post-round is the
    default.
    """

    def __init__(self, lookahead: str = "post-round"):
        if lookahead not in ("claim-only", "post-round"):
            raise ValueError(f"unknown lookahead mode: {lookahead!r}")
        self.lookahead = lookahead

    def state_key(self):
        return self.lookahead

    def choose_from(self, state: GameState, offered):
        ordered = sorted(offered)
        for e in ordered:
            if state.closes_odd_cycle(e):
                return Choose(e), "client:win"
        for e in ordered:
            if self._keeps_threat(state, e, offered):
                return Choose(e), "client:keep-threat"
        report = compute_critical(state)
        for e in ordered:
            u, v = state.endpoints(e)
            pu, pv = state.part[u], state.part[v]
            if pu and not pv and not report.critical[pu - 1]:
                return Choose(e), "client:noncritical-extend"
            if pv and not pu and not report.critical[pv - 1]:
                return Choose(e), "client:noncritical-extend"
        for e in ordered:
            u, v = state.endpoints(e)
            if not state.part[u] or not state.part[v]:
                return Choose(e), "client:extend"
        return Forfeit(), "client:forfeit"

    def _keeps_threat(self, state, e, offered):
        """Does a same-part unclaimed pair survive choosing e from this offer?"""
        mates = set(offered) - {e}
        if self.lookahead == "claim-only":
            mates = set()
        if any(t != e and t not in mates for t in state.threat_edges):
            return True
        u, v = state.endpoints(e)
        pu, pv = state.part[u], state.part[v]
        if pu and pv:
            return False  # cross pair inside V, no promotion, no new pairs
        if not pu and not pv:
            return False  # two fresh vertices land in opposite parts
        if pu:
            u, v = v, u
            pu, pv = pv, pu
        # u is fresh and will join the part opposite to v
        p = 2 - pv  # 0-based index of u's new part
        fresh = 0
        row = state.eindex[u]
        for w in state.parts[p]:
            t = row[w]
            if state.own[t] == UNCLAIMED and t not in mates:
                fresh += 1
        return fresh >= 1


# -- random and greedy baselines ------------------------------------------------


def _rejection_pick(rng, universe_size, accept, fallback):
    for _ in range(64):
        e = rng.randrange(universe_size)
        if accept(e):
            return e
    return rng.choice(fallback())


class RandomStrategy(Strategy):
    """Base of the random baselines: each draws from the generator it is given."""

    def __init__(self, rng: random.Random):
        self.rng = rng


class RandomMaker(RandomStrategy):
    def claim_edge(self, state: GameState):
        if not state.has_legal_builder_move():
            return Forfeit(), "random"
        eid = _rejection_pick(self.rng, state.E, state.is_legal_builder_move,
                              lambda: sorted(state.legal_builder_moves()))
        return ClaimEdge(eid), "random"


class RandomBreaker(RandomStrategy):
    def claim_edge(self, state: GameState, claims_left: int):
        eid = _rejection_pick(self.rng, state.E,
                              lambda e: state.own[e] == UNCLAIMED,
                              lambda: [e for e in range(state.E)
                                       if state.own[e] == UNCLAIMED])
        return ClaimEdge(eid), "random"


class RandomWaiter(RandomStrategy):
    def make_offer(self, state: GameState):
        b = state.config.b
        if state.must_share_vertex():
            pool = state.unclaimed_at(self.rng.randrange(state.n))
        else:
            pool = sorted(state.legal_builder_moves())
        t = self.rng.randint(1, min(b + 1, len(pool)))
        return Offer(tuple(sorted(self.rng.sample(pool, t)))), "random"


class RandomClient(RandomStrategy):
    def choose_from(self, state: GameState, offered):
        return Choose(self.rng.choice(sorted(offered))), "random"


class GreedyMaker(Strategy):
    """Claims a winning edge when one exists, else the extension into the
    untouched set that creates the most new same-part pairs."""

    def claim_edge(self, state: GameState):
        for e in sorted(state.threat_edges):
            if state.closes_odd_cycle(e):
                return ClaimEdge(e), "greedy:win"
        if state.builder_edge_count == 0:
            return ClaimEdge(0), "greedy:open"
        best = None  # (score, x, part_index_to_join)
        for x in state.r_set:
            for i in (0, 1):
                if len(state.parts[1 - i]) - state.deg_blk[x][1 - i] < 1:
                    continue  # no unclaimed edge to claim from the far side
                score = len(state.parts[i]) - state.deg_blk[x][i]
                key = (-score, x, i)
                if best is None or key < best:
                    best = key
        if best is not None:
            _, x, i = best
            row = state.eindex[x]
            for w in sorted(state.parts[1 - i]):
                if state.own[row[w]] == UNCLAIMED:
                    return ClaimEdge(row[w]), "greedy:extend"
        legal = state.legal_builder_moves()
        if legal:
            return ClaimEdge(min(legal)), "greedy:any"
        return Forfeit(), "greedy:stuck"


class GreedyBreaker(Strategy):
    """Covers same-part pairs first, then blocks around the builder's
    busiest vertices: the unclaimed edge with the largest builder-degree sum,
    lowest edge id on ties.

    Builder degrees change only on builder claims, so the vertex order by
    degree and, per vertex, its row of edge ids in that order are kept until
    the degrees change.  They depend on the degrees alone, never on who owns
    an edge, so they stay valid when a search restores an earlier position.
    """

    def __init__(self):
        self._order = None  # (builder degrees, vertices by degree, rows by vertex)

    def claim_edge(self, state: GameState, claims_left: int):
        if state.threat_edges:
            return ClaimEdge(min(state.threat_edges)), "greedy:block"
        deg = state.builder_deg
        key = tuple(deg)
        if self._order is None or self._order[0] != key:
            by_deg = sorted(range(state.n), key=lambda v: -deg[v])  # stable: ties by v
            self._order = (key, by_deg, {})
        _, by_deg, rows = self._order
        own = state.own
        best = None  # (-(deg_x + deg_y), edge id)
        for x in by_deg:
            dx = deg[x]
            if best is not None and (dx + dx < -best[0] or dx == 0):
                # x's pairs with earlier vertices were weighed from their side,
                # its pairs with later ones sum to at most 2 * dx, and between
                # vertices of degree 0 ids rise with the lower endpoint
                break
            entry = rows.get(x)
            if entry is None:
                # x's partners in degree order, their edge ids, and a getter
                # that reads the owners of those edges in one C-level pass
                row = state.eindex[x]
                ys = [y for y in by_deg if y != x]
                eids = [row[y] for y in ys]
                entry = rows[x] = (itemgetter(*eids), ys, eids)
            owners, ys, eids = entry
            # edge ids rise with y, so x's best pair is its first unclaimed
            # partner in degree order
            try:
                j = owners(own).index(UNCLAIMED)
            except ValueError:
                continue  # every edge at x is claimed
            cand = (-(dx + deg[ys[j]]), eids[j])
            if best is None or cand < best:
                best = cand
        if best is None:
            raise StateError("no unclaimed edge left for the blocker")
        return ClaimEdge(best[1]), "greedy:busy"


class GreedyWaiter(Strategy):
    """Feeds untouched vertices to the client one at a time, offering the
    whole unclaimed neighbourhood toward the client's graph whenever it fits
    in an offer.  A full-neighbourhood fan leaves no unclaimed edge at the
    fanned vertex, so no same-part pair ever appears while fans last."""

    def make_offer(self, state: GameState):
        b = state.config.b
        if state.builder_edge_count == 0:
            return Offer(tuple(state.unclaimed_at(0)[:b + 1])), "greedy:star"
        pool = state.legal_builder_moves()
        touched = state.parts[0] | state.parts[1]
        best = None  # (batch_size, y, batch)
        for y in sorted(state.r_set):
            row = state.eindex[y]
            batch = sorted(row[w] for w in touched
                           if state.own[row[w]] == UNCLAIMED and row[w] in pool)
            if batch and (best is None or len(batch) < best[0]):
                best = (len(batch), y, batch)
        if best is not None:
            size, y, batch = best
            if size <= b + 1:
                return Offer(tuple(batch)), "greedy:fan"
            # cannot clear the whole neighbourhood; push y toward the smaller
            # part by offering its edges into the larger one
            big = 0 if len(state.parts[0]) >= len(state.parts[1]) else 1
            row = state.eindex[y]
            slice_ = sorted(row[w] for w in state.parts[big]
                            if state.own[row[w]] == UNCLAIMED and row[w] in pool)
            if slice_:
                return Offer(tuple(slice_[:b + 1])), "greedy:fan-wide"
        safe = sorted(e for e in pool if e not in state.threat_edges)
        if safe:
            return Offer(tuple(safe[:b + 1])), "greedy:safe"
        return Offer((min(pool),),), "greedy:forced"


# -- solver-backed oracle --------------------------------------------------------


class SolverOracle(Strategy):
    """Plays perfectly by querying the exact solver at every decision.  In
    Maker-Breaker it reads its seat from the call: the game asks the Breaker
    with the claims left in its turn, at least 1, and the Maker with none."""

    def claim_edge(self, state: GameState, claims_left: int | None = None):
        from .solver import best_claim

        role = Role.BUILDER if claims_left is None else Role.BLOCKER
        eid = best_claim(state, role, claims_left)
        if eid is None:
            return Forfeit(), "oracle:resign"
        return ClaimEdge(eid), "oracle"

    def make_offer(self, state: GameState):
        from .solver import best_offer

        edges = best_offer(state)
        return Offer(edges), "oracle"

    def choose_from(self, state: GameState, offered):
        from .solver import best_choice

        return Choose(best_choice(state, offered)), "oracle"


# -- registry ---------------------------------------------------------------------

_MAKER = (Variant.MAKER_BREAKER, Role.BUILDER)
_BREAKER = (Variant.MAKER_BREAKER, Role.BLOCKER)
_CLIENT = (Variant.CLIENT_WAITER, Role.BUILDER)
_WAITER = (Variant.CLIENT_WAITER, Role.BLOCKER)

# each strategy name: its class and the (variant, role) seats it plays
STRATEGIES = {
    "maker-oc": (MakerOddCycle, {_MAKER}),
    "breaker-connected": (BreakerConnected, {_BREAKER}),
    "client-connected": (ClientConnected, {_CLIENT}),
    "random-maker": (RandomMaker, {_MAKER}),
    "random-breaker": (RandomBreaker, {_BREAKER}),
    "random-waiter": (RandomWaiter, {_WAITER}),
    "random-client": (RandomClient, {_CLIENT}),
    "greedy-maker": (GreedyMaker, {_MAKER}),
    "greedy-breaker": (GreedyBreaker, {_BREAKER}),
    "greedy-waiter": (GreedyWaiter, {_WAITER}),
    "solver-oracle": (SolverOracle, {_MAKER, _BREAKER, _CLIENT, _WAITER}),
}


def make_strategy(name: str, config, rng: random.Random | None = None,
                  role: Role | None = None, **options) -> Strategy:
    """Build a strategy by registry name.

    Given a role, the name must play that seat of config's variant.  options
    go to the strategy's constructor, and one it does not take is refused.
    Random baselines draw from the given rng (seeded from config.seed when
    omitted), so a full game is reproducible from its config.  Every refusal
    is a ValueError.
    """
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy name: {name!r}")
    cls, seats = STRATEGIES[name]
    seat = (config.variant, role)
    if role is not None and seat not in seats:
        names = [k for k, (_, s) in STRATEGIES.items() if seat in s]
        raise ValueError(f"{name!r} is not a {config.variant.value} {role.value} "
                         f"strategy; choose from {', '.join(names)}")
    unknown = [k for k in options if k not in inspect.signature(cls).parameters]
    if unknown:
        raise ValueError(f"{name!r} takes no option {', '.join(unknown)}")
    if issubclass(cls, RandomStrategy):
        return cls(rng if rng is not None else random.Random(config.seed))
    return cls(**options)


# -- invariant hooks ----------------------------------------------------------------

_IRREGULAR_BRANCHES = {"breaker:endgame-sweep", "breaker:fallback"}


class DegreeRegularityHook(GameHook):
    """While the balancing blocker has not yet swept or fallen back, every
    untouched vertex's blocked degree into a part stays within 1 of the
    others, and within 2 for the two parts combined."""

    def __init__(self, assert_mode=False):
        super().__init__(assert_mode)
        self.regular_phase = True

    def after_claim(self, state: GameState, move: Move):
        if not self.regular_phase or move.role is not Role.BLOCKER:
            if move.role is Role.BLOCKER and move.branch in _IRREGULAR_BRANCHES:
                self.regular_phase = False
            return
        if move.branch in _IRREGULAR_BRANCHES:
            self.regular_phase = False
            return
        for i in (0, 1):
            spread = state.degree_spread(i)
            if spread > 1:
                self.violation(
                    f"degree spread {spread} into part {i + 1} after move k={move.k}")

    def after_round(self, state: GameState, s: int):
        if not self.regular_phase or not state.r_set:
            return
        totals = [state.deg_blk[v][0] + state.deg_blk[v][1] for v in state.r_set]
        if max(totals) - min(totals) > 2:
            self.violation(
                f"combined degree spread {max(totals) - min(totals)} after round {s}")


class BreakerLossHook(GameHook):
    """In a game the blocker loses, it must never have swept or fallen back,
    and the unclaimed cross pairs at the end stay under the saving budget."""

    reads_board = False

    def __init__(self, saved_bound: int, assert_mode=False):
        super().__init__(assert_mode)
        self.saved_bound = saved_bound
        self.used_irregular = False

    def after_claim(self, state: GameState, move: Move):
        if move.role is Role.BLOCKER and move.branch in _IRREGULAR_BRANCHES:
            self.used_irregular = True

    def on_result(self, state: GameState, transcript: Transcript):
        if transcript.winner is not Role.BUILDER:
            return
        if self.used_irregular:
            self.violation("lost game used an endgame sweep or fallback claim")
        saved = state.saved_unclaimed()
        if saved > self.saved_bound:
            self.violation(
                f"lost game saved {saved} cross pairs, budget {self.saved_bound}")


class MakerLossHook(GameHook):
    """When the hub-growing builder loses, it conceded with a spanning-tree
    position whose blocked graph passes the structural certificate."""

    def __init__(self, maker: MakerOddCycle, assert_mode=False):
        super().__init__(assert_mode)
        self.maker = maker

    def on_result(self, state: GameState, transcript: Transcript):
        from .optimizer import gnb_membership

        if transcript.winner is not Role.BLOCKER:
            return
        if transcript.reason not in (Reason.BUILDER_FORFEIT, Reason.BOARD_EXHAUSTED,
                                     Reason.NO_LEGAL_BUILDER_MOVE):
            self.violation(f"lost game ended with {transcript.reason.value}")
            return
        hubs = self.maker.hubs
        blocks = self.maker.blocks
        touched = set(hubs) | set().union(*blocks) if blocks else set(hubs)
        if state.builder_cyclic:
            self.violation("lost game: builder graph contains a cycle")
        if state.builder_edge_count != len(touched) - 1:
            self.violation("lost game: builder graph is not a spanning tree "
                           "of its vertex set")
        if state.parts[0] != set(hubs) or state.parts[1] != set().union(*blocks):
            self.violation("lost game: parts do not split into hubs and blocks")
        blocked_edges = {e for e in range(state.E) if state.own[e] == BLOCKER}
        ok, why = gnb_membership(state.n, state.config.b, blocked_edges,
                                 hubs, blocks)
        if not ok:
            self.violation(f"lost game: certificate rejected ({why})")


class ClientCriticalHook(GameHook):
    """Between rounds of the connected client's games: at most one part has a
    fully-blocked untouched vertex, and any such vertex keeps exactly one
    unclaimed edge toward the builder's graph. The client never concedes:
    a played game shows a concession to on_result, the verifier to
    after_claim, so each is reported once.

    The structural checks apply only while no unclaimed same-part pair
    exists: once the blocker leaves one on the board, the client keeps it as
    a standing win threat and the balance arguments no longer bind.
    """

    reads_board = False

    def after_claim(self, state: GameState, move: Move):
        if move.branch == "client:forfeit":
            self.violation("client conceded")

    def on_result(self, state: GameState, transcript: Transcript):
        if transcript.reason is Reason.BUILDER_FORFEIT:
            self.violation("client conceded")

    def after_round(self, state: GameState, s: int):
        if state.status is not Status.IN_PROGRESS:
            return
        if state.threat_edges:
            return
        report = compute_critical(state)
        parts = report.critical_parts
        if len(parts) > 1:
            self.violation(f"both parts critical after round {s}")
        for i in parts:
            for v in report.critical[i]:
                open_v = (len(state.parts[0]) - state.deg_blk[v][0]
                          + len(state.parts[1]) - state.deg_blk[v][1])
                if open_v != 1:
                    self.violation(
                        f"critical vertex {v} has {open_v} unclaimed edges "
                        f"into the builder's graph after round {s}")


class ClientTreeHook(GameHook):
    """Against full-offer waiters the connected client's graph stays a tree."""

    def after_round(self, state: GameState, s: int):
        if state.status is Status.BUILDER_WIN:
            return
        if state.builder_cyclic:
            self.violation(f"client graph acquired a cycle by round {s}")
