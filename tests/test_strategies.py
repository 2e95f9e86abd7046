import hashlib
import random
from pathlib import Path

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
from oddcycle.engine import SEATS, ClaimEdge, Forfeit, run_game
from oddcycle.errors import InvariantViolation
from oddcycle.solver import verify_strategy
from oddcycle.strategies import (
    STRATEGIES,
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
    # every name in every seat: built with the seat's method, or refused
    for name, (cls, seats) in STRATEGIES.items():
        for variant in Variant:
            cfg = mb(6, 2) if variant is Variant.MAKER_BREAKER else cw(6, 2)
            for role in Role:
                if (variant, role) in seats:
                    s = make_strategy(name, cfg, role=role)
                    assert type(s) is cls
                    assert hasattr(s, SEATS[variant][role].method), (name, variant, role)
                else:
                    with pytest.raises(ValueError, match="is not a"):
                        make_strategy(name, cfg, role=role)
        assert type(make_strategy(name, cfg)) is cls
    # each seat has at least one strategy besides the oracle
    for variant in Variant:
        for role in Role:
            assert sum((variant, role) in seats for _, seats in STRATEGIES.values()) >= 2


def test_readme_lists_each_name_with_its_seats():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    table = text[text.index("## Strategy names"):].split("\n## ")[0]
    seat_names = {"Maker": (Variant.MAKER_BREAKER, Role.BUILDER),
                  "Breaker": (Variant.MAKER_BREAKER, Role.BLOCKER),
                  "Client": (Variant.CLIENT_WAITER, Role.BUILDER),
                  "Waiter": (Variant.CLIENT_WAITER, Role.BLOCKER)}
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            name, seats = (cell.strip() for cell in line.split("|")[1:3])
            listed[name.strip("`")] = {seat_names[s] for s in seats.split(", ")}
    assert listed == {name: seats for name, (_, seats) in STRATEGIES.items()}


def test_registry_refuses_options_a_strategy_does_not_take():
    cfg = cw(5, 1)
    assert make_strategy("client-connected", cfg, lookahead="claim-only").lookahead == "claim-only"
    for name in ("maker-oc", "random-client", "solver-oracle"):
        with pytest.raises(ValueError, match="takes no option lookahead"):
            make_strategy(name, cfg, lookahead="claim-only")
    with pytest.raises(ValueError, match="unknown strategy name"):
        make_strategy("greedy-client", cfg)


def test_maker_oc_beats_random_at_scale():
    # at n=40 with bias under the strategy's guarantee the hub builder should
    # crush random blocking every time
    rng = random.Random(100)
    n, b = 40, 12  # 12 = floor(0.31 * 40)
    for seed in range(10):
        maker = MakerOddCycle()
        t = run_game(mb(n, b, Rules.FREE, seed), maker, RandomBreaker(rng))
        assert t.winner is Role.BUILDER
        assert t.reason is Reason.ODD_CYCLE_CLOSED


def test_maker_oc_hub_fans_are_stars():
    # every hub's claimed edges go from the hub straight into its own block
    rng = random.Random(3)
    maker = MakerOddCycle()
    cfg = mb(24, 7, Rules.FREE, 3)
    t = run_game(cfg, maker, RandomBreaker(rng))
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
        t = run_game(cfg, maker, RandomBreaker(rng), hooks=(hook,))
        assert hook.violations == [], hook.violations
        losses += t.winner is Role.BLOCKER
    assert losses > 0  # bias 6 on K8 is far beyond the builder's means


def test_breaker_connected_beats_random_at_scale():
    rng = random.Random(101)
    n = 30
    b = 15  # just above ceil(n/2) - 1 = 14, comfortably in breaker range
    for seed in range(10):
        t = run_game(mb(n, b, Rules.CONNECTED, seed), RandomMaker(rng),
                     BreakerConnected())
        assert t.winner is Role.BLOCKER


def test_breaker_degree_regularity_vs_baselines():
    rng = random.Random(7)
    for opponent in (lambda: RandomMaker(rng), GreedyMaker):
        for seed in range(40):
            hook = DegreeRegularityHook(assert_mode=True)
            cfg = mb(16, 7, Rules.CONNECTED, seed)
            run_game(cfg, opponent(), BreakerConnected(), hooks=(hook,))


def test_breaker_loss_hook_on_won_games_is_silent():
    rng = random.Random(8)
    for seed in range(20):
        hook = BreakerLossHook(saved_bound=0)
        cfg = mb(12, 8, Rules.CONNECTED, seed)
        t = run_game(cfg, RandomMaker(rng), BreakerConnected(),
                     hooks=(hook,))
        if t.winner is Role.BLOCKER:
            assert hook.violations == []


class ReferenceBreakerConnected(BreakerConnected):
    """BreakerConnected with the full R x part scans it made before it read
    the board's counters: the reference its decisions must equal."""

    def _lowest_part_r_edge(self, state, i):
        best = None
        for v in state.r_set:
            row = state.eindex[v]
            for w in state.parts[i]:
                e = row[w]
                if state.own[e] == UNCLAIMED and (best is None or e < best):
                    best = e
        return best

    def _balance_pick(self, state, i, j, secondary=True):
        if not state.r_set or not state.parts[i]:
            return None
        d = state.deg_min[i]
        if d >= len(state.parts[i]):
            return None
        bucket = state.deg_index[i].get(d) or ()
        best_v = None
        best_gap = None
        for v in bucket:
            if v not in state.r_set:
                continue
            gap = state.deg_blk[v][j] - state.deg_blk[v][i] if secondary else 0
            if best_v is None or gap > best_gap or (gap == best_gap and v < best_v):
                best_v, best_gap = v, gap
        if best_v is None:
            return None
        row = state.eindex[best_v]
        for w in sorted(state.parts[i]):
            if state.own[row[w]] == UNCLAIMED:
                return row[w]
        return None


def test_breaker_connected_matches_full_scan_reference_in_games():
    # every claim of full connected games, against each maker, at the
    # criterion-5 bias ratio and a lower one
    fired = {}

    class Checked(BreakerConnected):
        def claim_edge(self, state, claims_left):
            got = super().claim_edge(state, claims_left)
            assert got == ReferenceBreakerConnected().claim_edge(state, claims_left)
            fired[got[1]] = fired.get(got[1], 0) + 1
            return got

    for n, biases in ((40, (12, 19)), (60, (29,))):
        for b in biases:
            for maker_name in ("random-maker", "greedy-maker", "maker-oc"):
                for seed in range(2):
                    cfg = mb(n, b, Rules.CONNECTED, seed)
                    run_game(cfg, make_strategy(maker_name, cfg), Checked())
    for branch in ("breaker:endgame-sweep", "breaker:balance-low", "breaker:balance-high"):
        assert fired.get(branch, 0) > 50, fired


def test_breaker_connected_matches_full_scan_reference_after_merges():
    # free-rule claim sequences whose builder merges flip whole components,
    # which moves untouched vertices between degree buckets; the two scans
    # are compared directly, since an open same-part pair would otherwise
    # decide most claims
    rng = random.Random(34)
    new, ref = BreakerConnected(), ReferenceBreakerConnected()
    merges = sweeps = picks = 0
    for trial in range(300):
        n = rng.randrange(6, 15)
        state = GameState(mb(n, rng.randrange(1, n), Rules.FREE))
        while state.status is Status.IN_PROGRESS and state.unclaimed_count:
            for claims_left in (1, state.config.b):
                assert new.claim_edge(state, claims_left) == ref.claim_edge(state, claims_left)
            for i in (0, 1):
                if len(state.r_set) * len(state.parts[i]) > state.e_blk_vr[i]:
                    assert new._lowest_part_r_edge(state, i) == ref._lowest_part_r_edge(state, i)
                    sweeps += 1
                for secondary in (True, False):
                    pick = new._balance_pick(state, i, 1 - i, secondary)
                    assert pick == ref._balance_pick(state, i, 1 - i, secondary)
                    picks += pick is not None
            open_edges = [e for e in range(state.E) if state.own[e] == UNCLAIMED]
            e = rng.choice(open_edges)
            if rng.random() < 0.5 or state.closes_odd_cycle(e):
                state.apply_claim(Role.BLOCKER, e)
            else:
                u, v = state.pairs[e]
                merges += state.part[u] == state.part[v] != 0
                state.apply_claim(Role.BUILDER, e)
    assert merges > 200 and sweeps > 5000 and picks > 10000, (merges, sweeps, picks)


def test_client_connected_wins_generous_offers():
    # a waiter who always offers everything lets the client walk to a win
    class FullOffer:
        def make_offer(self, state):
            from oddcycle.engine import Offer, offerable_edges
            pool = sorted(offerable_edges(state))
            return Offer(tuple(pool[:state.config.b + 1])), "full"

    for n, b in ((8, 2), (9, 3)):
        tree = ClientTreeHook(assert_mode=True)
        t = run_game(cw(n, b), ClientConnected(), FullOffer(),
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


def test_client_critical_hook_reports_each_concession_once():
    # a played game shows a concession to on_result only, the verifier shows
    # it to after_claim only
    class ConcedesInRoundTwo(ClientConnected):
        def choose_from(self, state, offered):
            if state.builder_edge_count == 1:
                return Forfeit(), "client:forfeit"
            return super().choose_from(state, offered)

    cfg = cw(6, 1)
    hook = ClientCriticalHook()
    t = run_game(cfg, ConcedesInRoundTwo(), make_strategy("greedy-waiter", cfg),
                 hooks=(hook,))
    assert t.reason is Reason.BUILDER_FORFEIT
    assert hook.violations == ["client conceded"]
    hook = ClientCriticalHook()
    res = verify_strategy(cw(4, 0), ConcedesInRoundTwo, Role.BUILDER, hooks=(hook,))
    assert not res.verified
    assert hook.violations == ["client conceded"]


def test_random_strategies_respect_rules():
    rng = random.Random(30)
    for seed in range(25):
        cfg = mb(8, 3, Rules.CONNECTED, seed)
        t = run_game(cfg, RandomMaker(rng), RandomBreaker(rng))
        # engine would raise on an illegal move, so finishing is the check
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        cfg = cw(8, 3, Rules.CONNECTED, seed)
        t = run_game(cfg, RandomClient(rng), RandomWaiter(rng))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)


def test_greedy_baselines_play_legal_games():
    rng = random.Random(31)
    for seed in range(10):
        t = run_game(mb(9, 2, Rules.FREE, seed), GreedyMaker(),
                     GreedyBreaker())
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        t = run_game(mb(9, 2, Rules.CONNECTED, seed), GreedyMaker(),
                     GreedyBreaker())
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        t = run_game(cw(9, 2, Rules.CONNECTED, seed), ClientConnected(),
                     GreedyWaiter())
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


def test_greedy_breaker_matches_brute_force_in_maker_oc_games():
    # one breaker instance per full game, so its degree-order cache lives
    # across claims; every busy pick is the max of (builder-degree sum,
    # -edge id) over all unclaimed edges
    class Checked(GreedyBreaker):
        busy = 0

        def claim_edge(self, state, claims_left):
            action, branch = super().claim_edge(state, claims_left)
            if branch == "greedy:busy":
                deg = state.builder_deg
                _, neg_eid = max((deg[u] + deg[v], -e) for e, (u, v) in enumerate(state.pairs)
                                 if state.own[e] == UNCLAIMED)
                assert action.edge == -neg_eid
                Checked.busy += 1
            return action, branch

    winners = set()
    for n, biases in ((40, (6, 12, 16, 20)), (100, (31, 46))):
        for b in biases:
            maker = MakerOddCycle()
            t = run_game(mb(n, b, Rules.FREE), maker, Checked(),
                         hooks=(MakerLossHook(maker, assert_mode=True),))
            winners.add(t.winner)
    assert winners == {Role.BUILDER, Role.BLOCKER}
    assert Checked.busy > 3000


def test_greedy_waiter_full_fans_shut_out_client():
    # while the bias lets every fan cover a whole neighbourhood, no same-part
    # pair ever goes unclaimed and the client can never win
    rng = random.Random(32)
    for seed in range(20):
        t = run_game(cw(10, 8, Rules.CONNECTED, seed), RandomClient(rng),
                     GreedyWaiter())
        assert t.winner is Role.BLOCKER
    # at lower bias the fans stop fitting; games stay legal either way
    for seed in range(10):
        t = run_game(cw(10, 4, Rules.CONNECTED, seed), RandomClient(rng),
                     GreedyWaiter())
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
    run_game(mb(10, 4, Rules.CONNECTED, 1), RandomMaker(rng), PileOn(),
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


# sha256 over the canonical JSON of every game of the random and greedy
# baselines below (each pairing, both rule sets, 20 seeds), in order: pins the
# moves, branch tags and results those strategies play, and with them the
# draws the random ones take from their rng
BASELINE_GAMES_SHA256 = "264fd50b147bbf944aab9445c371cc81de6d8f8653e320927d91dcb8c45a026e"
BASELINE_PAIRINGS = (
    (Variant.MAKER_BREAKER, 3, "random-maker", "random-breaker"),
    (Variant.MAKER_BREAKER, 10, "random-maker", "greedy-breaker"),
    (Variant.MAKER_BREAKER, 2, "greedy-maker", "random-breaker"),
    (Variant.MAKER_BREAKER, 2, "greedy-maker", "greedy-breaker"),
    (Variant.CLIENT_WAITER, 2, "random-client", "random-waiter"),
    (Variant.CLIENT_WAITER, 2, "random-client", "greedy-waiter"),
)


def test_baseline_transcripts_pinned():
    h = hashlib.sha256()
    for variant, b, builder, blocker in BASELINE_PAIRINGS:
        for rules in (Rules.FREE, Rules.CONNECTED):
            for seed in range(20):
                n = (8, 12, 20)[seed % 3]
                cfg = GameConfig(n=n, b=b, variant=variant, rules=rules, seed=seed)
                rng = random.Random(seed)
                t = run_game(cfg, make_strategy(builder, cfg, rng),
                             make_strategy(blocker, cfg, rng))
                h.update(t.to_json().encode())
    assert h.hexdigest() == BASELINE_GAMES_SHA256
