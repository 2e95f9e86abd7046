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
    Offer,
    replay,
    run_game,
    validate_offer,
)
from oddcycle.errors import CapacityError, RuleViolation, StateError
from oddcycle.solver import (
    _SOLVER_CACHE,
    CWSolver,
    DEFAULT_CAPACITY,
    SOLVER_CACHE_SIZE,
    MBSolver,
    _masks,
    _solver_for,
    _tables,
    best_choice,
    best_claim,
    best_offer,
    capacity_limits,
    exact_threshold,
    offers,
    solve_game,
    verify_strategy,
)
from oddcycle.strategies import (
    BreakerConnected,
    ClientConnected,
    ClientCriticalHook,
    GreedyBreaker,
    MakerOddCycle,
    RandomBreaker,
    RandomClient,
    RandomMaker,
    RandomWaiter,
    SolverOracle,
    make_strategy,
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


def test_threshold_scan_node_counts_pinned():
    # each scan starts from an empty solver cache; the node totals were
    # recorded before the solver walked its move masks lazily, and the move
    # order (so every count) must not change
    saved = dict(_SOLVER_CACHE)
    try:
        for n, variant, rules, bstar, nodes in (
                (5, Variant.MAKER_BREAKER, Rules.FREE, 2, 494),
                (5, Variant.MAKER_BREAKER, Rules.CONNECTED, 2, 342),
                (6, Variant.MAKER_BREAKER, Rules.FREE, 2, 14_630),
                (6, Variant.MAKER_BREAKER, Rules.CONNECTED, 2, 7_982),
                (4, Variant.CLIENT_WAITER, Rules.CONNECTED, 1, 195),
                (5, Variant.CLIENT_WAITER, Rules.CONNECTED, 2, 21_142),
                (5, Variant.CLIENT_WAITER, Rules.FREE, 2, 28_805)):
            _SOLVER_CACHE.clear()
            assert exact_threshold(n, variant, rules) == bstar, (n, variant, rules)
            solvers = list(_SOLVER_CACHE.values())
            assert sum(s.nodes for s in solvers) == nodes, (n, variant, rules)
            assert sum(len(s.memo) for s in solvers) == nodes, (n, variant, rules)
    finally:
        _SOLVER_CACHE.clear()
        _SOLVER_CACHE.update(saved)


def test_mb_threshold_scans_at_n7_pinned(monkeypatch):
    # the n=7 Maker-Breaker scans behind the paper's threshold check: b*=3
    # under both rules, with the node totals recorded before the solver's
    # parity test moved to vertex bitmasks
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "mb_max_n=7")
    saved = dict(_SOLVER_CACHE)
    try:
        for rules, nodes in ((Rules.FREE, 118_295), (Rules.CONNECTED, 154_722)):
            _SOLVER_CACHE.clear()
            assert exact_threshold(7, Variant.MAKER_BREAKER, rules) == 3, rules
            solvers = list(_SOLVER_CACHE.values())
            assert sum(s.nodes for s in solvers) == nodes, rules
            assert sum(len(s.memo) for s in solvers) == nodes, rules
    finally:
        _SOLVER_CACHE.clear()
        _SOLVER_CACHE.update(saved)


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
                t = run_game(cfg, SolverOracle(), RandomBreaker(rng))
            else:
                t = run_game(cfg, RandomMaker(rng), SolverOracle())
            assert t.winner is fav
    for n, b in ((4, 1), (5, 2)):
        cfg = cw(n, b, seed=1)
        fav = solve_game(cfg).winner
        for _ in range(25):
            if fav is Role.BUILDER:
                t = run_game(cfg, SolverOracle(), RandomWaiter(rng))
            else:
                t = run_game(cfg, RandomClient(rng), SolverOracle())
            assert t.winner is fav


def test_oracle_duel_matches_game_value():
    for cfg in (mb(5, 1), mb(5, 2), cw(4, 1), cw(5, 2)):
        fav = solve_game(cfg).winner
        t = run_game(cfg, SolverOracle(), SolverOracle())
        assert t.winner is fav


def test_oracle_seated_as_breaker_plays_breaker_moves():
    # built by name with no role, the oracle in the Breaker seat plays the
    # blocker's best claims: 54 games over n = 4-6, b = 1-3, both rule sets
    # and three makers
    class BlockerClaims:
        def claim_edge(self, state, claims_left):
            return ClaimEdge(best_claim(state, Role.BLOCKER, claims_left)), "oracle"

    for n, b, rules in itertools.product((4, 5, 6), (1, 2, 3), Rules):
        cfg = mb(n, b, rules, seed=3)
        for maker in ("maker-oc", "greedy-maker", "random-maker"):
            got = run_game(cfg, make_strategy(maker, cfg),
                           make_strategy("solver-oracle", cfg))
            want = run_game(cfg, make_strategy(maker, cfg), BlockerClaims())
            assert got.to_json() == want.to_json(), (n, b, rules, maker)


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


# reference oracle moves: each search written out over the solver's value
# functions, as the oracle did before the solver's nodes returned their moves;
# the Maker-Breaker blocker's search is still written this way in best_claim


def ref_builder_claim(state):
    solver = _solver_for(state.config)
    bld, blk = _masks(state)
    unclaimed = solver.t.full & ~(bld | blk)
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


def ref_offer(state):
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


def ref_choice(state, offered):
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


def test_oracle_moves_match_reference_searches():
    # random lines on every small board: at each round start and for a few
    # offers the oracle's move equals the reference search's
    rng = random.Random(11)
    checked = collections.Counter()
    for n in (4, 5):
        for b, rules in itertools.product((1, 2), (Rules.FREE, Rules.CONNECTED)):
            cfg = mb(n, b, rules)
            for _ in range(40):
                state = GameState(cfg)
                while state.status is Status.IN_PROGRESS and state.has_legal_builder_move():
                    want = ref_builder_claim(state)
                    assert best_claim(state, Role.BUILDER) == want, (cfg, bytes(state.own))
                    checked["claim"] += 1
                    moves = sorted(state.legal_builder_moves())
                    state.apply_claim(Role.BUILDER, rng.choice(moves))
                    for _ in range(min(b, state.unclaimed_count)):
                        if state.status is not Status.IN_PROGRESS:
                            break
                        free = [e for e in range(state.E) if state.own[e] == 0]
                        state.apply_claim(Role.BLOCKER, rng.choice(free))
        for b, rules in itertools.product((0, 1, 2), (Rules.FREE, Rules.CONNECTED)):
            cfg = cw(n, b, rules)
            for _ in range(12):
                state = GameState(cfg)
                while state.status is Status.IN_PROGRESS and state.has_legal_builder_move():
                    assert best_offer(state) == ref_offer(state), (cfg, bytes(state.own))
                    checked["offer"] += 1
                    solver = _solver_for(cfg)
                    cli, wtr = _masks(state)
                    options = offers(solver.t, cfg, cli, solver.t.full & ~(cli | wtr))
                    for offer in rng.sample(options, min(3, len(options))):
                        assert best_choice(state, offer) == ref_choice(state, offer)
                        checked["choice"] += 1
                    offer = rng.choice(options)
                    pick = rng.choice(offer)
                    state.apply_claim(Role.BUILDER, pick)
                    if state.status is Status.IN_PROGRESS:
                        for e in offer:
                            if e != pick:
                                state.apply_claim(Role.BLOCKER, e)
    assert min(checked.values()) > 100, checked


def test_solver_rule_masks_match_the_board():
    # the solver restates the move rules on edge masks (_EdgeTables.legal and
    # offers); on random lines of every small game, at each round start the
    # legal mask equals the board's legal_builder_moves, every unclaimed
    # closer is legal, and offers are exactly the sets of unclaimed edges
    # that validate_offer accepts
    rng = random.Random(12)
    positions = 0
    for n in (4, 5):
        t = _tables(n)
        for variant, b, rules in itertools.product(Variant, (0, 1, 2), Rules):
            if variant is Variant.MAKER_BREAKER and b == 0:
                continue
            cfg = GameConfig(n=n, b=b, variant=variant, rules=rules)
            for _ in range(30):
                state = GameState(cfg)
                while state.status is Status.IN_PROGRESS and state.has_legal_builder_move():
                    bld, blk = _masks(state)
                    unclaimed = t.full & ~(bld | blk)
                    legal = t.legal(cfg, bld, unclaimed)
                    assert set(t.bits(legal)) == state.legal_builder_moves(), \
                        (cfg, bytes(state.own))
                    # the solver takes closers & unclaimed for closers & legal
                    closers = t.closer_mask(bld)
                    assert closers & legal == closers & unclaimed, (cfg, bytes(state.own))
                    accepted = []
                    for size in range(1, b + 2):
                        for comb in itertools.combinations(t.bits(unclaimed), size):
                            try:
                                accepted.append(validate_offer(state, comb))
                            except RuleViolation:
                                pass
                    assert set(offers(t, cfg, bld, unclaimed)) == set(accepted), \
                        (cfg, bytes(state.own))
                    positions += 1
                    if variant is Variant.CLIENT_WAITER:
                        offer = rng.choice(accepted)
                        pick = rng.choice(offer)
                        mates = [e for e in offer if e != pick]
                    else:
                        pick = rng.choice(sorted(state.legal_builder_moves()))
                        free = [e for e in range(state.E) if state.own[e] == 0 and e != pick]
                        mates = rng.sample(free, min(b, len(free)))
                    state.apply_claim(Role.BUILDER, pick)
                    for e in mates:
                        if state.status is Status.IN_PROGRESS:
                            state.apply_claim(Role.BLOCKER, e)
    assert positions > 2000, positions


def ref_colouring(pairs, edges):
    """Breadth-first 2-colouring of the edge mask: vertex -> (least vertex of
    its component, colour) for each vertex with an edge, or None when the
    graph has an odd cycle."""
    adj = collections.defaultdict(list)
    for e, (u, v) in enumerate(pairs):
        if edges >> e & 1:
            adj[u].append(v)
            adj[v].append(u)
    colour = {}
    for root in sorted(adj):
        if root in colour:
            continue
        colour[root] = (root, 0)
        queue = [root]
        for x in queue:
            for y in adj[x]:
                if y not in colour:
                    colour[y] = (root, colour[x][1] ^ 1)
                    queue.append(y)
                elif colour[y] == colour[x]:
                    return None
    return colour


def test_colour_classes_match_bfs_colouring():
    # classes, closer_mask and odd_cycle_possible against a BFS colouring:
    # every edge mask at n=3 and n=4, then random sparse, dense and
    # bipartite masks at n=5-8
    rng = random.Random(15)
    masks = [(n, m) for n in (3, 4) for m in range(1 << edge_count(n))]
    for n in (5, 6, 7, 8):
        E = edge_count(n)
        for p in (0.15, 0.3, 0.6, 0.9):
            masks += [(n, sum(1 << e for e in range(E) if rng.random() < p))
                      for _ in range(150)]
        pairs = _tables(n).pairs
        for _ in range(150):
            side = [rng.randrange(2) for _ in range(n)]
            masks.append((n, sum(1 << e for e, (u, v) in enumerate(pairs)
                                 if side[u] != side[v] and rng.random() < 0.7)))
    odd = collections.Counter()
    for n, edges in masks:
        t = _tables(n)
        colour = ref_colouring(t.pairs, edges)
        got = t.classes(edges)
        assert t.odd_cycle_possible(edges) is (colour is None), (n, edges)
        odd[colour is None] += 1
        if colour is None:
            assert got is None, (n, edges)
            continue
        want = collections.Counter()
        for x, c in colour.items():
            want[c] |= 1 << x
        assert sorted(got) == sorted(want.values()), (n, edges)
        closers = sum(1 << e for e, (u, v) in enumerate(t.pairs)
                      if not edges >> e & 1 and u in colour and colour[u] == colour.get(v))
        assert t.closer_mask(edges) == closers, (n, edges)
    assert len(masks) > 2000 + 64 + 8 and min(odd.values()) > 1000, odd


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


def test_verify_greedy_breaker_small():
    for n, b, rules, verified, nodes in ((4, 1, Rules.FREE, True, 67),
                                         (5, 1, Rules.FREE, False, 16),
                                         (5, 2, Rules.FREE, True, 781),
                                         (6, 2, Rules.FREE, False, 243),
                                         (5, 2, Rules.CONNECTED, True, 408)):
        res = verify_strategy(mb(n, b, rules), GreedyBreaker, Role.BLOCKER)
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


def test_verify_builds_boards_only_for_hooks_that_read_them(monkeypatch):
    # a hook that declares it does not read the board gets None after each
    # claim of the pinned side, so the walk copies the board only for the
    # children its memo misses; it still sees every Move, in order
    class Recorder(GameHook):
        def __init__(self, reads_board):
            super().__init__()
            self.reads_board = reads_board
            self.moves = []

        def after_claim(self, state, move):
            if self.reads_board:
                assert state.own[move.action.edge] == BUILDER
            else:
                assert state is None
            self.moves.append((move.s, move.k, move.role, move.action, move.branch))

    clones = collections.Counter()
    clone = GameState.clone

    def counted_clone(state):
        clones[0] += 1
        return clone(state)

    monkeypatch.setattr(GameState, "clone", counted_clone)
    seen = {}
    for reads_board in (False, True):
        clones.clear()
        hook, recorder = ClientCriticalHook(), Recorder(reads_board)
        res = verify_strategy(cw(5, 1), ClientConnected, Role.BUILDER, hooks=(hook, recorder))
        check_verification(res, Role.BUILDER, True, 8778)
        assert res.violations == []
        seen[reads_board] = (recorder.moves, clones[0])
    (blind, blind_clones), (reading, reading_clones) = seen[False], seen[True]
    assert blind == reading
    assert len(blind) > res.nodes
    # one copy per memo miss: every node but the root
    assert blind_clones == res.nodes - 1
    assert reading_clones > blind_clones


def test_verify_agrees_with_game_value():
    # the exact oracle is verified on the side the game value favors and
    # refuted on the other
    for cfg, pins in ((mb(5, 2), {Role.BUILDER: 11, Role.BLOCKER: 473}),
                      (cw(5, 0), {Role.BUILDER: 331, Role.BLOCKER: 5})):
        winner = solve_game(cfg).winner
        for side, nodes in pins.items():
            res = verify_strategy(cfg, SolverOracle, side)
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
    # as in a played game: each side answers with its own action type, a waiter
    # offers or concedes, a client chooses from the offer, and every claim is
    # legal, with or without hooks attached
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

    class ChoosingMaker(MakerOddCycle):
        def claim_edge(self, state):
            action, branch = super().claim_edge(state)
            return Choose(action.edge) if isinstance(action, ClaimEdge) else action, branch

    class ClaimingClient(ClientConnected):
        def choose_from(self, state, offered):
            action, branch = super().choose_from(state, offered)
            return ClaimEdge(action.edge) if isinstance(action, Choose) else action, branch

    class OfferingBreaker(BreakerConnected):
        def claim_edge(self, state, claims_left):
            action, branch = super().claim_edge(state, claims_left)
            return Offer((action.edge,)) if isinstance(action, ClaimEdge) else action, branch

    cases = [
        (cw(4, 0), ClaimingWaiter, Role.BLOCKER, "expected an offer"),
        (mb(5, 1), ChoosingMaker, Role.BUILDER, "builder returned Choose.*expected a claim"),
        (cw(5, 1), ClaimingClient, Role.BUILDER, "client returned ClaimEdge.*expected a choice"),
        (mb(5, 1, Rules.CONNECTED), OfferingBreaker, Role.BLOCKER,
         "blocker returned Offer.*expected a claim"),
        (cw(4, 0), StrayClient, Role.BUILDER, "outside the offer"),
        (mb(5, 1), Reclaimer, Role.BUILDER, "already claimed"),
    ]
    for config, factory, side, message in cases:
        for hooks in ((), (GameHook(),)):
            with pytest.raises(RuleViolation, match=message):
                verify_strategy(config, factory, side, hooks=hooks)
        # a played game stops on the same move
        rng = random.Random(0)
        mb_game = config.variant is Variant.MAKER_BREAKER
        if side is Role.BUILDER:
            players = factory(), RandomBreaker(rng) if mb_game else RandomWaiter(rng)
        else:
            players = RandomMaker(rng) if mb_game else RandomClient(rng), factory()
        with pytest.raises(RuleViolation, match=message):
            run_game(config, *players)


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


def test_node_cap_enforced(monkeypatch):
    cfg = mb(5, 2, Rules.FREE)
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "solve_node_cap=10")
    with pytest.raises(CapacityError):
        MBSolver(cfg).builder_wins(0, 0)
    cfgw = cw(5, 2)
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "solve_node_cap=5")
    with pytest.raises(CapacityError):
        CWSolver(cfgw).client_wins(0, 0)
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "verify_node_cap=3")
    with pytest.raises(CapacityError):
        verify_strategy(cfgw, ClientConnected, Role.BUILDER)
    # a cached solver is held to the limits in force at each call, not to
    # those it was built under
    key = (5, 1, Variant.MAKER_BREAKER, Rules.FREE)
    _SOLVER_CACHE.pop(key, None)
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "solve_node_cap=10")
    with pytest.raises(CapacityError, match="exceeded 10 nodes"):
        solve_game(mb(5, 1))
    monkeypatch.delenv("ODDCYCLE_CAPACITY_OVERRIDE")
    assert solve_game(mb(5, 1)).winner is Role.BUILDER
    monkeypatch.setenv("ODDCYCLE_CAPACITY_OVERRIDE", "mb_max_n=4")
    with pytest.raises(CapacityError):
        solve_game(mb(5, 1))
    with pytest.raises(CapacityError):
        best_claim(GameState(mb(5, 1)), Role.BUILDER)
    _SOLVER_CACHE.pop(key, None)


def test_solver_memo_reuse_is_consistent():
    # repeated solves of the same config hit the cache and must agree
    a = solve_game(mb(5, 2, Rules.CONNECTED)).winner
    b = solve_game(mb(5, 2, Rules.CONNECTED)).winner
    assert a is b
    # nodes counts each call's own search; a cached answer costs none
    _SOLVER_CACHE.pop((5, 1, Variant.MAKER_BREAKER, Rules.FREE), None)
    assert solve_game(mb(5, 1)).nodes == 38
    assert solve_game(mb(5, 1)).nodes == 0


def test_solver_cache_keeps_the_most_recently_used():
    configs = [GameConfig(n=n, b=b, variant=variant, rules=rules)
               for variant, start, ns in ((Variant.MAKER_BREAKER, 1, (3, 4, 5)),
                                          (Variant.CLIENT_WAITER, 0, (3, 4, 5)))
               for rules in (Rules.FREE, Rules.CONNECTED)
               for n in ns for b in range(start, edge_count(n) + 1)]
    assert len(configs) > SOLVER_CACHE_SIZE + 1
    saved = dict(_SOLVER_CACHE)
    try:
        _SOLVER_CACHE.clear()
        first = [solve_game(c) for c in configs[:SOLVER_CACHE_SIZE]]
        # a cache hit makes the oldest config the most recently used
        assert solve_game(configs[0]).nodes == 0
        for c in configs[SOLVER_CACHE_SIZE:]:
            solve_game(c)
            assert len(_SOLVER_CACHE) <= SOLVER_CACHE_SIZE
        assert len(_SOLVER_CACHE) == SOLVER_CACHE_SIZE
        kept, evicted = configs[0], configs[1]
        assert (kept.n, kept.b, kept.variant, kept.rules) in _SOLVER_CACHE
        assert (evicted.n, evicted.b, evicted.variant, evicted.rules) not in _SOLVER_CACHE
        again = solve_game(evicted)
        assert first[1].nodes > 0
        assert (again.winner, again.nodes) == (first[1].winner, first[1].nodes)
    finally:
        _SOLVER_CACHE.clear()
        _SOLVER_CACHE.update(saved)
