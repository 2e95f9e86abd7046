"""Exact small-board solvers and exhaustive strategy verification.

Game values are computed by memoized search over edge-ownership masks.  The
blocker's multi-claim turn is expanded one claim at a time with the number of
claims left in the memo key, so different orderings of the same claim set
collapse to one state.  Two sound shortcuts speed up the Maker-Breaker
search: a position where the builder's edges plus all unclaimed edges are
2-colorable can never produce an odd cycle, and on the blocker's turn any
surviving cycle-closing edge must be covered this turn, so claims are
restricted to those while they exist.

verify_strategy pins one side to a fixed strategy and expands every legal
move of the other side with no shortcuts at all, reporting the first losing
line as a replayable transcript.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache

from .board import (
    BLOCKER,
    BUILDER,
    UNCLAIMED,
    GameConfig,
    GameState,
    Role,
    Rules,
    Variant,
    edge_count,
)
from .engine import (
    Choose,
    ClaimEdge,
    Forfeit,
    Move,
    Offer,
    Transcript,
    _decision,
    _ScriptedPlayer,
    _start,
    offerable_edges,
    run_game,
    validate_offer,
)
from .errors import CapacityError, RuleViolation, StateError

DEFAULT_CAPACITY = {
    "mb_max_n": 6,
    "cw_max_n": 5,
    "verify_mb_max_n": 6,
    "verify_cw_max_n": 6,
    "solve_node_cap": 50_000_000,
    "verify_node_cap": 100_000_000,
}

ENV_OVERRIDE = "ODDCYCLE_CAPACITY_OVERRIDE"


def capacity_limits() -> dict:
    """Capacity defaults, adjusted by the ODDCYCLE_CAPACITY_OVERRIDE variable
    (comma-separated key=value pairs)."""
    caps = dict(DEFAULT_CAPACITY)
    raw = os.environ.get(ENV_OVERRIDE, "")
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in caps:
            raise ValueError(f"bad {ENV_OVERRIDE} entry: {part!r}")
        caps[key] = int(value.strip())
    return caps


def _check_size(config: GameConfig, caps: dict, kind: str = ""):
    if config.variant is Variant.MAKER_BREAKER:
        limit = caps[kind + "mb_max_n"]
    else:
        limit = caps[kind + "cw_max_n"]
    if config.n > limit:
        raise CapacityError(
            f"n={config.n} beyond the exact-search limit {limit} for "
            f"{config.variant.value}; raise it via {ENV_OVERRIDE}")


class _EdgeTables:
    """Bitmask geometry of K_n shared by the solvers."""

    def __init__(self, n: int):
        self.n = n
        self.E = edge_count(n)
        self.full = (1 << self.E) - 1
        self.pairs = []
        self.at_vertex = [0] * n
        eid = 0
        for u in range(n):
            for v in range(u + 1, n):
                self.pairs.append((u, v))
                self.at_vertex[u] |= 1 << eid
                self.at_vertex[v] |= 1 << eid
                eid += 1

    def parity_find(self, edges: int):
        """Union-find with parity over an edge mask, stopping at the first edge
        whose endpoints already have equal parity (an odd cycle).

        Returns (find, odd): find(x) is (root, parity of x) and covers every
        edge only when odd is False.
        """
        parent = list(range(self.n))
        parity = [0] * self.n

        def find(x):
            p = 0
            while parent[x] != x:
                p ^= parity[x]
                x = parent[x]
            return x, p

        m = edges
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            u, v = self.pairs[e]
            ru, pu = find(u)
            rv, pv = find(v)
            if ru != rv:
                parent[rv] = ru
                parity[rv] = pu ^ pv ^ 1
            elif pu == pv:
                return find, True
        return find, False

    def closer_mask(self, bld: int) -> int:
        """Edges whose endpoints are joined with equal parity by bld, which
        holds no odd cycle in any position still in play."""
        find, _ = self.parity_find(bld)
        out = 0
        for e in self.bits(self.full & ~bld):
            u, v = self.pairs[e]
            if find(u) == find(v):
                out |= 1 << e
        return out

    def odd_cycle_possible(self, edges: int) -> bool:
        """Can the edge set (as one graph) contain an odd cycle?"""
        return self.parity_find(edges)[1]

    def legal(self, config: GameConfig, bld: int, unclaimed: int) -> int:
        """Unclaimed edges the builder may claim, or be offered, under the rules."""
        if config.rules is not Rules.CONNECTED or not bld:
            return unclaimed
        near = 0
        for e in self.bits(bld):
            u, v = self.pairs[e]
            near |= self.at_vertex[u] | self.at_vertex[v]
        return unclaimed & near

    def bits(self, mask: int) -> list[int]:
        out = []
        while mask:
            e = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            out.append(e)
        return out


@lru_cache(maxsize=16)
def _tables(n: int) -> _EdgeTables:
    return _EdgeTables(n)


def _masks(state: GameState) -> tuple[int, int]:
    """Edge masks of the builder's and the blocker's claims."""
    bld = blk = 0
    for e in range(state.E):
        if state.own[e] == 1:
            bld |= 1 << e
        elif state.own[e] == 2:
            blk |= 1 << e
    return bld, blk


def offers(t: _EdgeTables, config: GameConfig, cli: int, unclaimed: int):
    """All sets the waiter may put on the table, deterministically ordered."""
    b = config.b
    if config.rules is Rules.CONNECTED and cli == 0:
        seen = set()
        out = []
        for v in range(t.n):
            star = t.bits(t.at_vertex[v] & unclaimed)
            for size in range(1, min(b + 1, len(star)) + 1):
                for comb in itertools.combinations(star, size):
                    if comb not in seen:
                        seen.add(comb)
                        out.append(comb)
        out.sort(key=lambda c: (len(c), c))
        return out
    pool = t.bits(t.legal(config, cli, unclaimed))
    out = []
    for size in range(1, min(b + 1, len(pool)) + 1):
        out.extend(itertools.combinations(pool, size))
    return out


class _Search:
    """Memo, node budget and closing-edge cache of one exact solver."""

    def __init__(self, config: GameConfig, node_cap: int | None):
        caps = capacity_limits()
        _check_size(config, caps)
        self.config = config
        self.t = _tables(config.n)
        self.node_cap = node_cap if node_cap is not None else caps["solve_node_cap"]
        self.nodes = 0
        self.memo: dict = {}
        self.closers_cache: dict[int, int] = {}

    def _closers(self, bld: int) -> int:
        m = self.closers_cache.get(bld)
        if m is None:
            m = self.t.closer_mask(bld)
            self.closers_cache[bld] = m
        return m

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise CapacityError(
                f"exact search exceeded {self.node_cap} nodes; raise "
                f"solve_node_cap via {ENV_OVERRIDE}")


# -- Maker-Breaker ----------------------------------------------------------------


class MBSolver(_Search):
    """Memoized game value of Maker-Breaker positions on K_n."""

    # each solver class keeps an __init__ of its own: perfbench's tracer wraps it per class
    def __init__(self, config: GameConfig, node_cap: int | None = None):
        super().__init__(config, node_cap)

    def builder_wins(self, bld: int, blk: int) -> bool:
        """Value with the builder to move."""
        key = (bld, blk, -1)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        unclaimed = self.t.full & ~(bld | blk)
        result = None
        if unclaimed == 0:
            result = False
        else:
            legal = self.t.legal(self.config, bld, unclaimed)
            if legal == 0:
                result = False
            elif self._closers(bld) & legal:
                result = True
            elif not self.t.odd_cycle_possible(bld | unclaimed):
                result = False
        if result is None:
            result = False
            for e in self.t.bits(legal):
                nb = bld | (1 << e)
                left = min(self.config.b, bin(unclaimed).count("1") - 1)
                if self.blocker_turn(nb, blk, left):
                    result = True
                    break
        self.memo[key] = result
        return result

    def blocker_turn(self, bld: int, blk: int, claims_left: int) -> bool:
        """Value mid blocker turn; True means the builder wins."""
        if claims_left == 0:
            return self.builder_wins(bld, blk)
        unclaimed = self.t.full & ~(bld | blk)
        if unclaimed == 0:
            return self.builder_wins(bld, blk)
        key = (bld, blk, claims_left)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        live = self._closers(bld) & self.t.legal(self.config, bld, unclaimed)
        if bin(live).count("1") > claims_left:
            self.memo[key] = True
            return True
        moves = live if live else unclaimed
        result = True
        for m in self.t.bits(moves):
            if not self.blocker_turn(bld, blk | (1 << m), claims_left - 1):
                result = False
                break
        self.memo[key] = result
        return result


# -- Client-Waiter ------------------------------------------------------------------


class CWSolver(_Search):
    """Memoized game value of monotone Client-Waiter positions on K_n."""

    def __init__(self, config: GameConfig, node_cap: int | None = None):
        super().__init__(config, node_cap)

    def client_wins(self, cli: int, wtr: int) -> bool:
        """Value with the waiter about to offer."""
        unclaimed = self.t.full & ~(cli | wtr)
        if unclaimed == 0:
            return False
        if self.t.legal(self.config, cli, unclaimed) == 0:
            return True
        key = (cli, wtr)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self._tick()
        closing = self._closers(cli)
        result = True
        for offer in offers(self.t, self.config, cli, unclaimed):
            offer_mask = 0
            for e in offer:
                offer_mask |= 1 << e
            good = False
            for e in offer:
                if closing >> e & 1:
                    good = True
                    break
                if self.client_wins(cli | (1 << e), wtr | (offer_mask & ~(1 << e))):
                    good = True
                    break
            if not good:
                result = False
                break
        self.memo[key] = result
        return result


# -- top-level solve and thresholds ---------------------------------------------------


@dataclass
class SolveResult:
    config: GameConfig
    winner: Role
    nodes: int  # search nodes this call visited; 0 when the cache held the answer


_SOLVER_CACHE: dict = {}


def _solver_for(config: GameConfig):
    key = (config.n, config.b, config.variant, config.rules)
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        if config.variant is Variant.MAKER_BREAKER:
            solver = MBSolver(config)
        else:
            solver = CWSolver(config)
        _SOLVER_CACHE[key] = solver
    return solver


def solve_game(config: GameConfig) -> SolveResult:
    """Winner of the game from the empty board under optimal play."""
    # the cache may hold boards solved under a looser limit; gate every call
    _check_size(config, capacity_limits())
    solver = _solver_for(config)
    before = solver.nodes
    if config.variant is Variant.MAKER_BREAKER:
        win = solver.builder_wins(0, 0)
    else:
        win = solver.client_wins(0, 0)
    return SolveResult(config=config, winner=Role.BUILDER if win else Role.BLOCKER,
                       nodes=solver.nodes - before)


def exact_threshold(n: int, variant: Variant, rules: Rules) -> int:
    """Least bias at which the blocker side wins under optimal play.

    Blocker strength grows with the bias in both variants, so a linear scan
    from the smallest legal bias finds the threshold.
    """
    variant = Variant(variant)
    rules = Rules(rules)
    start = 1 if variant is Variant.MAKER_BREAKER else 0
    for b in range(start, edge_count(n) + 1):
        cfg = GameConfig(n=n, b=b, variant=variant, rules=rules)
        if solve_game(cfg).winner is Role.BLOCKER:
            return b
    raise StateError(f"no blocker-winning bias found for n={n}")


# -- oracle moves -----------------------------------------------------------------------


def best_claim(state: GameState, role: Role, claims_left: int | None = None):
    """Optimal claim for a Maker-Breaker position, or None to concede."""
    solver = _solver_for(state.config)
    bld, blk = _masks(state)
    unclaimed = solver.t.full & ~(bld | blk)
    if role is Role.BUILDER:
        legal = solver.t.legal(state.config, bld, unclaimed)
        if legal == 0:
            return None
        close = solver._closers(bld) & legal
        if close:
            return (close & -close).bit_length() - 1
        for e in solver.t.bits(legal):
            left = min(state.config.b, bin(unclaimed).count("1") - 1)
            if solver.blocker_turn(bld | (1 << e), blk, left):
                return e
        return (legal & -legal).bit_length() - 1
    if claims_left is None:
        claims_left = min(state.config.b, bin(unclaimed).count("1"))
    for m in solver.t.bits(unclaimed):
        if not solver.blocker_turn(bld, blk | (1 << m), claims_left - 1):
            return m
    return (unclaimed & -unclaimed).bit_length() - 1


def best_offer(state: GameState) -> tuple[int, ...]:
    """Waiter offer minimizing the client's chances; in a lost position the
    first offer without an instant closing edge."""
    solver = _solver_for(state.config)
    cli, wtr = _masks(state)
    unclaimed = solver.t.full & ~(cli | wtr)
    closing = solver._closers(cli)
    options = offers(solver.t, state.config, cli, unclaimed)
    fallback = None
    for offer in options:
        offer_mask = 0
        for e in offer:
            offer_mask |= 1 << e
        if any(closing >> e & 1 for e in offer):
            continue
        if fallback is None:
            fallback = offer
        if all(not solver.client_wins(cli | (1 << e), wtr | (offer_mask & ~(1 << e)))
               for e in offer):
            return tuple(offer)
    return tuple(fallback if fallback is not None else options[0])


def best_choice(state: GameState, offered) -> int:
    """Client pick from an offer: close a cycle, else keep a winning line."""
    solver = _solver_for(state.config)
    cli, wtr = _masks(state)
    closing = solver._closers(cli)
    ordered = sorted(offered)
    for e in ordered:
        if closing >> e & 1:
            return e
    offer_mask = 0
    for e in ordered:
        offer_mask |= 1 << e
    for e in ordered:
        if solver.client_wins(cli | (1 << e), wtr | (offer_mask & ~(1 << e))):
            return e
    return ordered[0]


# -- exhaustive strategy verification --------------------------------------------------


@dataclass
class VerificationResult:
    config: GameConfig
    side: Role
    verified: bool
    nodes: int
    counterexample: Transcript | None = None
    violations: list = field(default_factory=list)


class _Verifier:
    """Depth-first walk over every line of the opponent against one pinned
    strategy, memoized on the board and the strategy's state key.

    A node is a round start (claims_left 0) or a Maker-Breaker blocker turn
    with claims left.  At a node one side claims: the maker or one breaker
    claim, or the client's choice from each of the waiter's offers.  The
    pinned side asks its strategy once per decision; the opponent tries
    every legal move.  The first line the pinned side loses is kept in
    .failure, and the walk then unwinds.
    """

    def __init__(self, config: GameConfig, strategy, side: Role, hooks, node_cap: int):
        self.config = config
        self.mb = config.variant is Variant.MAKER_BREAKER
        self.t = _tables(config.n)
        self.strategy = strategy
        self.side = side
        self.hooks = hooks
        self.node_cap = node_cap
        self.nodes = 0
        self.memo: dict = {}
        # the current line, as Move fields; Move objects are built only for
        # hooks and for the failure
        self.path: list[tuple] = []
        self.failure: list[Move] | None = None
        # at the node being expanded, where many offers lead to the same
        # claim: whether claiming each edge wins, the board after it, and
        # what the hooks are shown for each decision
        self.wins: dict[int, bool] = {}
        self.after: dict[int, GameState] = {}
        self.shown: dict[tuple, tuple] = {}

    def fail(self) -> bool:
        if self.failure is None:
            self.failure = [Move(*m) for m in self.path]
        return False

    def visit(self, state: GameState, claims_left: int = 0) -> bool:
        """True when the pinned side wins every line from this node."""
        if self.failure is not None:
            return False
        if state.unclaimed_count == 0:
            claims_left = 0
        if claims_left == 0:
            if state.unclaimed_count == 0:
                winner = Role.BLOCKER
            elif self.mb:
                winner = None if state.has_legal_builder_move() else Role.BLOCKER
            else:
                winner = None if offerable_edges(state) else Role.BUILDER
            if winner is not None:
                return winner is self.side or self.fail()
        key = (bytes(state.own), claims_left, self.strategy.state_key())
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise CapacityError(
                f"verification exceeded {self.node_cap} nodes; raise "
                f"verify_node_cap via {ENV_OVERRIDE}")
        s = state.builder_edge_count
        if claims_left == 0:
            for h in self.hooks:
                h.after_round(state, s)
            s += 1
        outer = self.wins, self.after, self.shown
        self.wins, self.after, self.shown = {}, {}, {}
        if self.mb:
            role = Role.BLOCKER if claims_left else Role.BUILDER
            result = self.turn(state, claims_left, s, role, ())
        else:
            result = self.offer_round(state, s)
        self.wins, self.after, self.shown = outer
        self.memo[key] = result
        return result

    def offer_round(self, state, s) -> bool:
        """The waiter's offers, each followed by the client's choice."""
        if self.side is Role.BLOCKER:
            snap = self.strategy.snapshot()
            action, branch = _decision(self.strategy.make_offer(state))
            if isinstance(action, Offer):
                action = Offer(validate_offer(state, action.edges))
            elif not isinstance(action, Forfeit):
                raise RuleViolation(f"waiter returned {action!r}, expected an offer")
            lines = [(action, branch)]
        else:
            cli, wtr = _masks(state)
            unclaimed = self.t.full & ~(cli | wtr)
            lines = [(Offer(o), None) for o in offers(self.t, self.config, cli, unclaimed)]
        k = len(self.path)
        ok = True
        for action, branch in lines:
            if isinstance(action, Forfeit):
                ok = self.settle(state, 0, s, Role.BLOCKER, (), action, branch)
                break
            self.path.append((s, k, Role.BLOCKER, action, branch))
            ok = self.turn(state, 0, s, Role.BUILDER, action.edges)
            self.path.pop()
            if not ok:
                break
        if self.side is Role.BLOCKER:
            self.strategy.restore(snap)
        return ok

    def turn(self, state, claims_left, s, role, offer) -> bool:
        """One claim by role (the client's is a choice from offer): the pinned
        side's decision, or every legal claim of the opponent."""
        if role is self.side:
            snap = self.strategy.snapshot()
            if not self.mb:
                raw = self.strategy.choose_from(state, offer)
            elif role is Role.BUILDER:
                raw = self.strategy.claim_edge(state)
            else:
                raw = self.strategy.claim_edge(state, claims_left)
            action, branch = _decision(raw)
            ok = self.settle(state, claims_left, s, role, offer, action, branch)
            self.strategy.restore(snap)
            return ok
        if not self.mb:
            moves = [Choose(e) for e in sorted(offer)]
        elif role is Role.BUILDER:
            moves = [ClaimEdge(e) for e in sorted(state.legal_builder_moves())]
        else:
            moves = [ClaimEdge(e) for e in range(state.E) if state.own[e] == UNCLAIMED]
        for action in moves:
            if not self.settle(state, claims_left, s, role, offer, action, None):
                return False
        return True

    def settle(self, state, claims_left, s, role, offer, action, branch) -> bool:
        """Play one claim (or concession) and search on from the board it leaves."""
        self.path.append((s, len(self.path), role, action, branch))
        if isinstance(action, Forfeit):
            move = Move(*self.path[-1])
            for h in self.hooks:
                h.after_claim(state, move)
            ok = self.fail()
        else:
            e = action.edge
            if role is self.side and offer and e not in offer:
                raise RuleViolation(f"client chose edge {e} outside the offer")
            won = self.wins.get(e)
            if won is None:
                # the opponent's claims are legal by construction; the
                # strategy's are checked as a played game checks them
                if role is self.side:
                    state.check_claim(role, e)
                won = self.wins[e] = role is Role.BUILDER and state.closes_odd_cycle(e)
            if role is self.side and self.hooks:
                self.claimed(state, role, action, branch)
            if won:
                ok = self.side is Role.BUILDER or self.fail()
            else:
                ok = self.claim(state, claims_left, role, offer, e)
        self.path.pop()
        return ok

    def claimed(self, state, role, action, branch):
        """Show the hooks the pinned side's claim and the board after it."""
        key = (type(action), action.edge, branch)
        seen = self.shown.get(key)
        if seen is None:
            seen = self.shown[key] = (self.board_after(state, role, action.edge),
                                      Move(*self.path[-1]))
        for h in self.hooks:
            h.after_claim(*seen)

    def claim(self, state, claims_left, role, offer, e) -> bool:
        """A claim that does not end the game; a chosen edge's offer-mates go
        to the waiter.  The memo is read before any board is built."""
        mates = [m for m in offer if m != e]
        left = state.unclaimed_count - 1 - len(mates)
        if offer or left == 0:
            claims_left = 0
        elif role is Role.BUILDER:
            claims_left = min(self.config.b, left)
        else:
            claims_left -= 1
        own = bytearray(state.own)
        own[e] = BUILDER if role is Role.BUILDER else BLOCKER
        for m in mates:
            own[m] = BLOCKER
        hit = self.memo.get((bytes(own), claims_left, self.strategy.state_key()))
        if hit is not None:
            return hit
        child = self.board_after(state, role, e)
        if mates:
            child = child.clone()
            for m in mates:
                child.apply_claim(Role.BLOCKER, m)
        return self.visit(child, claims_left)

    def board_after(self, state, role, e) -> GameState:
        """The board after role claims e at the node being expanded, made
        once per edge; the walk never changes it."""
        board = self.after.get(e)
        if board is None:
            board = self.after[e] = state.clone()
            board.apply_claim(role, e)
        return board


def verify_strategy(config: GameConfig, strategy_factory, side: Role,
                    hooks=(), node_cap: int | None = None) -> VerificationResult:
    """Check a fixed strategy against every legal line of the other side.

    strategy_factory is a zero-argument callable producing a fresh strategy;
    it is called once for the search and once more to rebuild a losing line
    into a transcript when one is found.  A strategy that draws from a random
    generator is rejected with ValueError: its moves depend on state that
    neither the search memo nor the rebuild can see.
    """
    caps = capacity_limits()
    _check_size(config, caps, kind="verify_")
    cap = node_cap if node_cap is not None else caps["verify_node_cap"]
    strategy = strategy_factory()
    if getattr(strategy, "rng", None) is not None:
        raise ValueError(f"cannot verify {type(strategy).__name__}: "
                         "it draws from a random generator")
    walk = _Verifier(config, strategy, side, hooks, cap)
    state = GameState(config)
    _start(strategy, state)
    ok = walk.visit(state)
    counterexample = None
    if not ok:
        fresh = strategy_factory()
        scripted = _ScriptedPlayer(walk.failure, side.opponent)
        builder, blocker = (fresh, scripted) if side is Role.BUILDER else (scripted, fresh)
        counterexample = run_game(config, builder, blocker)
        if counterexample.winner is not side.opponent:
            raise StateError(
                f"the refuting line replays as a {counterexample.winner.value} win; "
                "the strategy's moves depend on state outside its state_key")
    violations = []
    for h in hooks:
        violations.extend(h.violations)
    return VerificationResult(config=config, side=side, verified=ok,
                              nodes=walk.nodes, counterexample=counterexample,
                              violations=violations)
