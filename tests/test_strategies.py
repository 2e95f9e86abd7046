import random

import pytest

from oddcycle.board import (
    BLOCKER,
    GameConfig,
    GameState,
    Reason,
    Role,
    Rules,
    Status,
    UNCLAIMED,
    Variant,
)
from oddcycle.engine import ClaimEdge, run_client_waiter, run_maker_breaker
from oddcycle.errors import InvariantViolation
from oddcycle.strategies import (
    BLOCKER_STRATEGIES,
    BUILDER_STRATEGIES,
    BreakerConnected,
    BreakerLossHook,
    ClientConnected,
    ClientCriticalHook,
    ClientTreeHook,
    CriticalReport,
    DegreeRegularityHook,
    GreedyBreaker,
    GreedyMaker,
    GreedyWaiter,
    MakerLossHook,
    MakerOddCycle,
    RandomBreaker,
    RandomClient,
    RandomMaker,
    RandomWaiter,
    compute_critical,
    make_strategy,
)


def mb(n, b, rules=Rules.FREE, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.MAKER_BREAKER, rules=rules, seed=seed)


def cw(n, b, rules=Rules.CONNECTED, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.CLIENT_WAITER, rules=rules, seed=seed)


def test_registry_builds_everything():
    for variant, names in BUILDER_STRATEGIES.items():
        cfg = mb(6, 2) if variant is Variant.MAKER_BREAKER else cw(6, 2)
        for name in names:
            if name == "solver-oracle":
                continue  # exercised in the solver tests
            s = make_strategy(name, cfg)
            assert hasattr(s, "claim_edge") or hasattr(s, "choose_from")
    for variant, names in BLOCKER_STRATEGIES.items():
        cfg = mb(6, 2) if variant is Variant.MAKER_BREAKER else cw(6, 2)
        for name in names:
            if name == "solver-oracle":
                continue
            s = make_strategy(name, cfg)
            assert hasattr(s, "claim_edge") or hasattr(s, "make_offer")


def test_maker_oc_beats_random_at_scale():
    # at n=40 with bias under the strategy's guarantee the hub builder should
    # crush random blocking every time
    rng = random.Random(100)
    n, b = 40, 12  # 12 = floor(0.31 * 40)
    for seed in range(10):
        maker = MakerOddCycle()
        t = run_maker_breaker(mb(n, b, Rules.FREE, seed), maker, RandomBreaker(rng))
        assert t.winner is Role.BUILDER
        assert t.reason is Reason.ODD_CYCLE_CLOSED


def test_maker_oc_hub_fans_are_stars():
    # every hub's claimed edges go from the hub straight into its own block
    rng = random.Random(3)
    maker = MakerOddCycle()
    cfg = mb(24, 7, Rules.FREE, 3)
    t = run_maker_breaker(cfg, maker, RandomBreaker(rng))
    state = GameState(cfg)
    for m in t.moves:
        if m.role is Role.BUILDER and m.branch in ("maker:grow", "maker:new-hub"):
            u, v = state.endpoints(m.action.edge)
            assert maker.hubs and (u in maker.hubs or v in maker.hubs)
            state.apply_claim(Role.BUILDER, m.action.edge)
        elif m.role is Role.BUILDER and m.branch == "maker:win":
            break  # the closing claim may join two block vertices
        elif m.role is Role.BLOCKER:
            state.apply_claim(Role.BLOCKER, m.action.edge)
    assert set(maker.hubs) <= set(range(cfg.n))
    assert len(maker.hubs) == len(maker.blocks)
    assert len(set(maker.hubs)) == len(maker.hubs)
    blocks_union = set().union(*maker.blocks)
    assert blocks_union.isdisjoint(maker.hubs)


def test_maker_oc_win_branch_fires_on_threat():
    state = GameState(mb(6, 1))
    maker = MakerOddCycle()
    maker.start(state)
    # build a path 0-1, then 1-2: vertices 0 and 2 share a part
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    state.apply_claim(Role.BUILDER, state.eindex[1][2])
    assert state.threat_edges == {state.eindex[0][2]}
    action, branch = maker.claim_edge(state)
    assert branch == "maker:win"
    assert action.edge == state.eindex[0][2]


def test_maker_loss_hook_certificate_on_losses():
    # strong blocking at small n forces builder concessions; each such loss
    # must carry a valid blocked-graph certificate
    rng = random.Random(4)
    losses = 0
    for seed in range(200):
        maker = MakerOddCycle()
        hook = MakerLossHook(maker)
        cfg = mb(8, 6, Rules.FREE, seed)
        t = run_maker_breaker(cfg, maker, RandomBreaker(rng), hooks=(hook,))
        assert hook.violations == [], hook.violations
        losses += t.winner is Role.BLOCKER
    assert losses > 0  # bias 6 on K8 is far beyond the builder's means


def test_breaker_connected_beats_random_at_scale():
    rng = random.Random(101)
    n = 30
    b = 15  # just above ceil(n/2) - 1 = 14, comfortably in breaker range
    for seed in range(10):
        t = run_maker_breaker(mb(n, b, Rules.CONNECTED, seed), RandomMaker(rng),
                              BreakerConnected())
        assert t.winner is Role.BLOCKER


def test_breaker_degree_regularity_vs_baselines():
    rng = random.Random(7)
    for opponent in (lambda: RandomMaker(rng), GreedyMaker):
        for seed in range(40):
            hook = DegreeRegularityHook(assert_mode=True)
            cfg = mb(16, 7, Rules.CONNECTED, seed)
            run_maker_breaker(cfg, opponent(), BreakerConnected(), hooks=(hook,))


def test_breaker_loss_hook_on_won_games_is_silent():
    rng = random.Random(8)
    for seed in range(20):
        hook = BreakerLossHook(saved_bound=0)
        cfg = mb(12, 8, Rules.CONNECTED, seed)
        t = run_maker_breaker(cfg, RandomMaker(rng), BreakerConnected(),
                              hooks=(hook,))
        if t.winner is Role.BLOCKER:
            assert hook.violations == []


def test_client_connected_wins_generous_offers():
    # a waiter who always offers everything lets the client walk to a win
    class FullOffer:
        def make_offer(self, state):
            from oddcycle.engine import Offer, offerable_edges
            pool = sorted(offerable_edges(state))
            return Offer(tuple(pool[:state.config.b + 1])), "full"

    for n, b in ((8, 2), (9, 3)):
        tree = ClientTreeHook(assert_mode=True)
        t = run_client_waiter(cw(n, b), FullOffer(), ClientConnected(),
                              hooks=(tree,))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)


def test_client_connected_branch_priority():
    state = GameState(cw(6, 2))
    cli = ClientConnected()
    # tree: 0-1, 1-2; offer includes the closing edge 0-2
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    state.apply_claim(Role.BUILDER, state.eindex[1][2])
    act, branch = cli.choose_from(state, (state.eindex[0][2], state.eindex[0][3]))
    assert branch == "client:win"
    assert act.edge == state.eindex[0][2]


def test_client_keep_threat_counts_mates():
    # edge 1-3 would put 3 next to 0 and 2 (same part); but if every other
    # unclaimed 3-to-that-part edge is a mate in the same offer, post-round
    # lookahead must not count them
    state = GameState(cw(5, 2))
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    state.apply_claim(Role.BUILDER, state.eindex[1][2])
    state.apply_claim(Role.BLOCKER, state.eindex[0][2])  # kill the 0-2 pair
    assert not state.threat_edges
    # parts now {0, 2} and {1}; vertices 3, 4 untouched
    e13 = state.eindex[1][3]
    e03 = state.eindex[0][3]
    e23 = state.eindex[2][3]
    cli = ClientConnected(lookahead="post-round")
    # choosing e13 joins 3 to the part of 0 and 2; both 0-3 and 2-3 are mates,
    # so no live pair remains and the branch must not claim keep-threat
    act, branch = cli.choose_from(state, (e13, e03, e23))
    assert branch != "client:keep-threat"
    # with 0-3 left off the table, it stays live after the round
    act, branch = cli.choose_from(state, (e13, e23))
    assert branch == "client:keep-threat"
    assert act.edge == e13
    # claim-only mode sees the mate edges as still open
    loose = ClientConnected(lookahead="claim-only")
    act, branch = loose.choose_from(state, (e13, e03, e23))
    assert branch == "client:keep-threat"


def test_client_rejects_unknown_lookahead():
    with pytest.raises(ValueError):
        ClientConnected(lookahead="psychic")


def test_compute_critical_flags():
    state = GameState(cw(6, 2))
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    report = compute_critical(state)
    assert report.critical_parts == []
    # block vertex 5 away from part of vertex 0
    state.apply_claim(Role.BLOCKER, state.eindex[0][5])
    report = compute_critical(state)
    part_of_0 = state.part[0] - 1
    assert 5 in report.critical[part_of_0]
    assert report.critical_parts == [part_of_0]


def test_client_critical_hook_threat_scope():
    # hook stays silent when a same-part pair is on the board, whatever the
    # criticality situation
    state = GameState(cw(6, 2))
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    state.apply_claim(Role.BUILDER, state.eindex[1][2])
    assert state.threat_edges
    hook = ClientCriticalHook(assert_mode=True)
    for v in (3, 4, 5):
        state.apply_claim(Role.BLOCKER, state.eindex[0][v])
        state.apply_claim(Role.BLOCKER, state.eindex[2][v])
    hook.after_round(state, 2)  # both-parts-critical would trip without scope
    assert hook.violations == []


def test_random_strategies_respect_rules():
    rng = random.Random(30)
    for seed in range(25):
        cfg = mb(8, 3, Rules.CONNECTED, seed)
        t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng))
        # engine would raise on an illegal move, so finishing is the check
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        cfg = cw(8, 3, Rules.CONNECTED, seed)
        t = run_client_waiter(cfg, RandomWaiter(rng), RandomClient(rng))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)


def test_greedy_baselines_play_legal_games():
    rng = random.Random(31)
    for seed in range(10):
        t = run_maker_breaker(mb(9, 2, Rules.FREE, seed), GreedyMaker(),
                              GreedyBreaker())
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        t = run_maker_breaker(mb(9, 2, Rules.CONNECTED, seed), GreedyMaker(),
                              GreedyBreaker())
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        t = run_client_waiter(cw(9, 2, Rules.CONNECTED, seed), GreedyWaiter(),
                              ClientConnected())
        assert t.winner in (Role.BUILDER, Role.BLOCKER)


def test_greedy_breaker_takes_busiest_open_pair():
    # with no same-part pair open, the pick is the open edge with the largest
    # builder-degree sum, lowest id on ties, as a scan of every edge finds it
    rng = random.Random(33)
    checked = 0
    for seed in range(30):
        state = GameState(mb(rng.choice((6, 9, 14)), 2, Rules.FREE, seed))
        while state.status is Status.IN_PROGRESS and state.unclaimed_count:
            open_edges = [e for e in range(state.E) if state.own[e] == UNCLAIMED]
            if not state.threat_edges:
                deg = state.builder_deg
                want = min(open_edges, key=lambda e: (-sum(deg[v] for v in state.pairs[e]), e))
                assert GreedyBreaker().claim_edge(state, 1) == (ClaimEdge(want), "greedy:busy")
                checked += 1
            state.apply_claim(rng.choice((Role.BUILDER, Role.BLOCKER)), rng.choice(open_edges))
    assert checked > 100


def test_greedy_waiter_full_fans_shut_out_client():
    # while the bias lets every fan cover a whole neighbourhood, no same-part
    # pair ever goes unclaimed and the client can never win
    rng = random.Random(32)
    for seed in range(20):
        t = run_client_waiter(cw(10, 8, Rules.CONNECTED, seed), GreedyWaiter(),
                              RandomClient(rng))
        assert t.winner is Role.BLOCKER
    # at lower bias the fans stop fitting; games stay legal either way
    for seed in range(10):
        t = run_client_waiter(cw(10, 4, Rules.CONNECTED, seed), GreedyWaiter(),
                              RandomClient(rng))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)


def test_degree_hook_flags_unbalanced_blocker():
    # a blocker that dumps all claims on one vertex must trip the hook
    class PileOn:
        def claim_edge(self, state, claims_left):
            for w in sorted(state.r_set):
                for v in sorted(state.parts[0] | state.parts[1]):
                    e = state.eindex[w][v]
                    if state.own[e] == 0:
                        return type("A", (), {"edge": e})() and __import__(
                            "oddcycle.engine", fromlist=["ClaimEdge"]
                        ).ClaimEdge(e), "breaker:balance-low"
            from oddcycle.engine import ClaimEdge
            return ClaimEdge(next(e for e in range(state.E)
                                  if state.own[e] == 0)), "breaker:balance-low"

    rng = random.Random(33)
    hook = DegreeRegularityHook()
    run_maker_breaker(mb(10, 4, Rules.CONNECTED, 1), RandomMaker(rng), PileOn(),
                      hooks=(hook,))
    assert hook.violations


def test_snapshot_restore_round_trips():
    maker = MakerOddCycle()
    state = GameState(mb(8, 2))
    maker.start(state)
    snap = maker.snapshot()
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    maker.claim_edge(state)  # mutates hub bookkeeping
    maker.restore(snap)
    assert maker.hubs == [0]
    assert maker.blocks == [set()]
