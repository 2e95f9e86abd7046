import collections
import hashlib
import itertools
import random

import pytest

from oddcycle.board import (
    BLOCKER,
    BUILDER,
    GameConfig,
    GameState,
    Role,
    Rules,
    Status,
    Variant,
    edge_count,
)
from oddcycle.engine import (
    Choose,
    ClaimEdge,
    Forfeit,
    GameHook,
    replay,
    run_client_waiter,
    run_maker_breaker,
)
from oddcycle.errors import CapacityError, RuleViolation, StateError
from oddcycle.solver import (
    _SOLVER_CACHE,
    CWSolver,
    DEFAULT_CAPACITY,
    MBSolver,
    best_choice,
    best_claim,
    best_offer,
    capacity_limits,
    exact_threshold,
    solve_game,
    verify_strategy,
)
from oddcycle.strategies import (
    BreakerConnected,
    ClientConnected,
    MakerOddCycle,
    RandomBreaker,
    RandomClient,
    RandomMaker,
    RandomWaiter,
    SolverOracle,
)


def mb(n, b, rules=Rules.FREE, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.MAKER_BREAKER, rules=rules, seed=seed)


def cw(n, b, rules=Rules.CONNECTED, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.CLIENT_WAITER, rules=rules, seed=seed)


# reference minimax with no shortcuts: blocker turns enumerate whole claim
# subsets, parity by BFS coloring


def _closes(pairs, cli_edges, e):
    adj = collections.defaultdict(list)
    for f in cli_edges:
        u, v = pairs[f]
        adj[u].append(v)
        adj[v].append(u)
    u0, v0 = pairs[e]
    color = {u0: 0}
    stack = [u0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in color:
                color[y] = color[x] ^ 1
                stack.append(y)
    return color.get(v0) == 0


def ref_mb(n, b, connected):
    E = edge_count(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    memo = {}

    def builder(bld, blk):
        key = (bld, blk)
        if key in memo:
            return memo[key]
        un = [e for e in range(E) if not (bld >> e | blk >> e) & 1]
        bld_edges = [e for e in range(E) if bld >> e & 1]
        if connected and bld_edges:
            verts = {x for f in bld_edges for x in pairs[f]}
            legal = [e for e in un if pairs[e][0] in verts or pairs[e][1] in verts]
        else:
            legal = un
        res = False
        for e in legal:
            if _closes(pairs, bld_edges, e):
                res = True
                break
            rem = [f for f in un if f != e]
            k = min(b, len(rem))
            ok = True
            for sub in itertools.combinations(rem, k):
                nk = blk
                for f in sub:
                    nk |= 1 << f
                if not builder(bld | (1 << e), nk):
                    ok = False
                    break
            if ok:
                res = True
                break
        memo[key] = res
        return res

    return builder(0, 0)


def ref_cw(n, b, connected):
    E = edge_count(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    memo = {}

    def value(cli, wtr):
        key = (cli, wtr)
        if key in memo:
            return memo[key]
        un = [e for e in range(E) if not (cli >> e | wtr >> e) & 1]
        if not un:
            memo[key] = False
            return False
        cli_edges = [e for e in range(E) if cli >> e & 1]
        if connected and cli_edges:
            verts = {x for f in cli_edges for x in pairs[f]}
            pool = [e for e in un if pairs[e][0] in verts or pairs[e][1] in verts]
        else:
            pool = un
        if not pool:
            memo[key] = True
            return True
        offers = []
        if connected and not cli_edges:
            seen = set()
            for v in range(n):
                star = [e for e in un if v in pairs[e]]
                for t in range(1, min(b + 1, len(star)) + 1):
                    for c in itertools.combinations(star, t):
                        if c not in seen:
                            seen.add(c)
                            offers.append(c)
        else:
            for t in range(1, min(b + 1, len(pool)) + 1):
                offers.extend(itertools.combinations(pool, t))
        res = True
        for off in offers:
            good = False
            for e in off:
                if _closes(pairs, cli_edges, e):
                    good = True
                    break
                nw = wtr
                for f in off:
                    if f != e:
                        nw |= 1 << f
                if value(cli | (1 << e), nw):
                    good = True
                    break
            if not good:
                res = False
                break
        memo[key] = res
        return res

    return value(0, 0)


def test_mb_solver_matches_reference():
    for n in (3, 4):
        for b in (1, 2, 3):
            for rules in (Rules.FREE, Rules.CONNECTED):
                got = solve_game(mb(n, b, rules)).winner is Role.BUILDER
                assert got == ref_mb(n, b, rules is Rules.CONNECTED), (n, b, rules)


def test_cw_solver_matches_reference():
    for n in (3, 4):
        for b in (0, 1, 2):
            for rules in (Rules.FREE, Rules.CONNECTED):
                got = solve_game(cw(n, b, rules)).winner is Role.BUILDER
                assert got == ref_cw(n, b, rules is Rules.CONNECTED), (n, b, rules)


def test_thresholds_small_boards():
    assert exact_threshold(3, Variant.MAKER_BREAKER, Rules.FREE) == 1
    assert exact_threshold(4, Variant.MAKER_BREAKER, Rules.FREE) == 1
    assert exact_threshold(5, Variant.MAKER_BREAKER, Rules.FREE) == 2
    assert exact_threshold(5, Variant.MAKER_BREAKER, Rules.CONNECTED) == 2
    assert exact_threshold(3, Variant.CLIENT_WAITER, Rules.CONNECTED) == 1
    assert exact_threshold(4, Variant.CLIENT_WAITER, Rules.CONNECTED) == 1
    assert exact_threshold(5, Variant.CLIENT_WAITER, Rules.CONNECTED) == 2


def test_threshold_monotone_in_bias():
    # above the threshold the blocker keeps winning
    for rules in (Rules.FREE, Rules.CONNECTED):
        bstar = exact_threshold(5, Variant.MAKER_BREAKER, rules)
        for b in range(bstar, edge_count(5) + 1):
            assert solve_game(mb(5, b, rules)).winner is Role.BLOCKER
        for b in range(1, bstar):
            assert solve_game(mb(5, b, rules)).winner is Role.BUILDER


def test_oracle_plays_perfectly_from_favored_side():
    rng = random.Random(7)
    for n, b, rules in ((4, 1, Rules.FREE), (5, 1, Rules.FREE),
                        (5, 2, Rules.CONNECTED)):
        cfg = mb(n, b, rules, seed=1)
        fav = solve_game(cfg).winner
        for _ in range(25):
            if fav is Role.BUILDER:
                t = run_maker_breaker(cfg, SolverOracle(Role.BUILDER),
                                      RandomBreaker(rng))
            else:
                t = run_maker_breaker(cfg, RandomMaker(rng),
                                      SolverOracle(Role.BLOCKER))
            assert t.winner is fav
    for n, b in ((4, 1), (5, 2)):
        cfg = cw(n, b, seed=1)
        fav = solve_game(cfg).winner
        for _ in range(25):
            if fav is Role.BUILDER:
                t = run_client_waiter(cfg, RandomWaiter(rng),
                                      SolverOracle(Role.BUILDER))
            else:
                t = run_client_waiter(cfg, SolverOracle(Role.BLOCKER),
                                      RandomClient(rng))
            assert t.winner is fav


def test_oracle_duel_matches_game_value():
    for cfg in (mb(5, 1), mb(5, 2), cw(4, 1), cw(5, 2)):
        fav = solve_game(cfg).winner
        if cfg.variant is Variant.MAKER_BREAKER:
            t = run_maker_breaker(cfg, SolverOracle(Role.BUILDER),
                                  SolverOracle(Role.BLOCKER))
        else:
            t = run_client_waiter(cfg, SolverOracle(Role.BLOCKER),
                                  SolverOracle(Role.BUILDER))
        assert t.winner is fav


def test_best_moves_on_states():
    # builder one move from closing a triangle: the oracle must take it
    cfg = mb(5, 1)
    state = GameState(cfg)
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    state.apply_claim(Role.BUILDER, state.eindex[1][2])
    assert best_claim(state, Role.BUILDER) == state.eindex[0][2]
    # blocker facing a single closer: must cover it
    assert best_claim(state, Role.BLOCKER, claims_left=1) == state.eindex[0][2]
    # client offered a closing edge takes it
    cfgw = cw(5, 1)
    sw = GameState(cfgw)
    sw.apply_claim(Role.BUILDER, sw.eindex[0][1])
    sw.apply_claim(Role.BUILDER, sw.eindex[1][2])
    pick = best_choice(sw, (sw.eindex[0][2], sw.eindex[0][3]))
    assert pick == sw.eindex[0][2]
    # waiter never offers a closing edge while any safe offer exists
    off = best_offer(sw)
    assert sw.eindex[0][2] not in off


def check_verification(res, side, verified, nodes):
    """Pin the verdict and node count; a refutation must replay as a loss."""
    assert (res.verified, res.nodes) == (verified, nodes)
    if verified:
        assert res.counterexample is None
    else:
        assert replay(res.counterexample).winner is side.opponent


def test_verify_client_connected_small():
    for n, b, lookahead, verified, nodes in ((4, 0, "post-round", True, 38),
                                             (5, 1, "post-round", True, 8778),
                                             (5, 1, "claim-only", False, 3558)):
        res = verify_strategy(cw(n, b), lambda: ClientConnected(lookahead), Role.BUILDER)
        check_verification(res, Role.BUILDER, verified, nodes)


def test_verify_breaker_connected_small():
    for n, b, verified, nodes in ((4, 1, True, 61), (5, 1, False, 6), (5, 2, True, 413),
                                  (6, 2, True, 11010)):
        cfg = mb(n, b, Rules.CONNECTED)
        res = verify_strategy(cfg, BreakerConnected, Role.BLOCKER)
        check_verification(res, Role.BLOCKER, verified, nodes)


def test_verify_finds_counterexample_and_it_replays():
    # maker-oc cannot win n=4 at b=1 or n=5 at b=2 (the game value is a blocker
    # win), so exhaustive blocking must refute it with a transcript that replays
    for n, b, verified, nodes in ((4, 1, False, 6), (5, 1, True, 92), (5, 2, False, 8)):
        res = verify_strategy(mb(n, b, Rules.FREE), MakerOddCycle, Role.BUILDER)
        check_verification(res, Role.BUILDER, verified, nodes)


def test_verify_restores_strategy_between_lines():
    # a claim counter in the state key matches the board only when every line
    # starts from the strategy state its position was reached with
    class CountingMaker(MakerOddCycle):
        claims = 0

        def claim_edge(self, state):
            self.claims += 1
            return super().claim_edge(state)

        def state_key(self):
            return super().state_key(), self.claims

        def snapshot(self):
            return super().snapshot(), self.claims

        def restore(self, snap):
            super().restore(snap[0])
            self.claims = snap[1]

    res = verify_strategy(mb(5, 1), CountingMaker, Role.BUILDER)
    check_verification(res, Role.BUILDER, True, 92)


def test_verify_hooks_see_every_pinned_claim():
    # hooks get the board right after each claim of the pinned side, winning
    # claims included, although the walk itself needs no board after a win;
    # the digests pin the boards, in order, that a walk copying the board for
    # every claim showed the hooks
    class Recorder(GameHook):
        def __init__(self):
            super().__init__()
            self.seen = collections.Counter()
            self.digest = hashlib.sha256()

        def after_claim(self, state, move):
            assert state.own[move.action.edge] == BUILDER
            self.seen[state.status] += 1
            self.digest.update(bytes(state.own) + bytes([move.s, move.k]))

    for cfg, strategy, nodes, in_progress, won, digest in (
            (cw(4, 0), ClientConnected, 38, 78, 54, "353722f04c0eb3d2"),
            (mb(5, 1), MakerOddCycle, 92, 19, 54, "5a4b431d22f4d1e0")):
        hook = Recorder()
        res = verify_strategy(cfg, strategy, Role.BUILDER, hooks=(hook,))
        check_verification(res, Role.BUILDER, True, nodes)
        assert hook.seen == {Status.IN_PROGRESS: in_progress, Status.BUILDER_WIN: won}
        assert hook.digest.hexdigest()[:16] == digest


def test_verify_agrees_with_game_value():
    # the exact oracle is verified on the side the game value favors and
    # refuted on the other
    for cfg, pins in ((mb(5, 2), {Role.BUILDER: 11, Role.BLOCKER: 473}),
                      (cw(5, 0), {Role.BUILDER: 331, Role.BLOCKER: 5})):
        winner = solve_game(cfg).winner
        for side, nodes in pins.items():
            res = verify_strategy(cfg, lambda: SolverOracle(side), side)
            check_verification(res, side, side is winner, nodes)


def test_verify_rejects_hidden_strategy_state():
    # a strategy drawing from a random generator is refused outright
    with pytest.raises(ValueError, match="random"):
        verify_strategy(mb(5, 1), lambda: RandomMaker(random.Random(0)), Role.BUILDER)
    # a refutation that the fresh rebuild does not lose is reported, not returned:
    # only the instance the search uses forfeits when offered a closing edge
    made = []

    class ForfeitsFirstTime(ClientConnected):
        def choose_from(self, state, offered):
            if self is made[0] and any(state.closes_odd_cycle(e) for e in offered):
                return Forfeit(), "client:forfeit"
            return super().choose_from(state, offered)

    def factory():
        made.append(ForfeitsFirstTime())
        return made[-1]

    with pytest.raises(StateError, match="builder win"):
        verify_strategy(cw(4, 0), factory, Role.BUILDER)


def test_verify_holds_the_pinned_strategy_to_the_rules():
    # as in a played game: a waiter offers or concedes, a client chooses from
    # the offer, and every claim is legal, with or without hooks attached
    class ClaimingWaiter(SolverOracle):
        def make_offer(self, state):
            return ClaimEdge(0), "waiter:claims"

    class StrayClient(ClientConnected):
        def choose_from(self, state, offered):
            stray = [e for e in range(state.E) if state.own[e] == 0 and e not in offered]
            return Choose(stray[0]), "client:stray"

    class Reclaimer(MakerOddCycle):
        def claim_edge(self, state):
            taken = state.own.find(BLOCKER)
            if taken >= 0:
                return ClaimEdge(taken), "maker:reclaim"
            return super().claim_edge(state)

    for hooks in ((), (GameHook(),)):
        with pytest.raises(RuleViolation, match="expected an offer"):
            verify_strategy(cw(4, 0), lambda: ClaimingWaiter(Role.BLOCKER), Role.BLOCKER,
                            hooks=hooks)
        with pytest.raises(RuleViolation, match="outside the offer"):
            verify_strategy(cw(4, 0), StrayClient, Role.BUILDER, hooks=hooks)
        with pytest.raises(RuleViolation, match="already claimed"):
            verify_strategy(mb(5, 1), Reclaimer, Role.BUILDER, hooks=hooks)


def test_capacity_guards(monkeypatch):
    with pytest.raises(CapacityError):
        solve_game(mb(7, 1))
    with pytest.raises(CapacityError):
        solve_game(cw(6, 1))
    with pytest.raises(CapacityError):
        verify_strategy(cw(7, 1), ClientConnected, Role.BUILDER)
    # env override opens the gate (node cap still applies)
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "cw_max_n=6")
    caps = capacity_limits()
    assert caps["cw_max_n"] == 6
    assert caps["mb_max_n"] == DEFAULT_CAPACITY["mb_max_n"]
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "bogus_key=3")
    with pytest.raises(ValueError):
        capacity_limits()


def test_node_cap_enforced():
    cfg = mb(5, 2, Rules.FREE)
    with pytest.raises(CapacityError):
        MBSolver(cfg, node_cap=10).builder_wins(0, 0)
    cfgw = cw(5, 2)
    with pytest.raises(CapacityError):
        CWSolver(cfgw, node_cap=5).client_wins(0, 0)
    with pytest.raises(CapacityError):
        verify_strategy(cfgw, ClientConnected, Role.BUILDER, node_cap=3)


def test_solver_memo_reuse_is_consistent():
    # repeated solves of the same config hit the cache and must agree
    a = solve_game(mb(5, 2, Rules.CONNECTED)).winner
    b = solve_game(mb(5, 2, Rules.CONNECTED)).winner
    assert a is b
    # nodes counts each call's own search; a cached answer costs none
    _SOLVER_CACHE.pop((5, 1, Variant.MAKER_BREAKER, Rules.FREE), None)
    assert solve_game(mb(5, 1)).nodes == 38
    assert solve_game(mb(5, 1)).nodes == 0
