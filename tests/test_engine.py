import json
import random
from pathlib import Path

import pytest

from oddcycle.board import (
    GameConfig,
    GameState,
    Reason,
    Role,
    Rules,
    Status,
    Variant,
    edge_count,
)
from oddcycle.engine import (
    ClaimEdge,
    Choose,
    Forfeit,
    MetricsRecorder,
    Move,
    Offer,
    Transcript,
    offerable_edges,
    parse_action,
    replay,
    run_client_waiter,
    run_game,
    run_maker_breaker,
    validate_offer,
)
from oddcycle.errors import CorruptionError, RuleViolation
from oddcycle.strategies import (
    GreedyWaiter,
    RandomBreaker,
    RandomClient,
    RandomMaker,
    RandomWaiter,
    make_strategy,
)


def mb_config(n=6, b=2, rules=Rules.FREE, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.MAKER_BREAKER, rules=rules, seed=seed)


def cw_config(n=6, b=2, rules=Rules.CONNECTED, seed=0):
    return GameConfig(n=n, b=b, variant=Variant.CLIENT_WAITER, rules=rules, seed=seed)


def test_action_json_round_trip():
    actions = [ClaimEdge(7), Offer((1, 4, 9)), Choose(4), Forfeit()]
    for a in actions:
        d = a.to_json_dict()
        json.dumps(d)  # serializable
        assert parse_action(d) == a
    with pytest.raises(CorruptionError):
        parse_action({"type": "nonsense"})


def test_move_json_round_trip():
    m = Move(s=3, k=5, role=Role.BLOCKER, action=ClaimEdge(2), branch="x:y")
    assert Move.from_json_dict(m.to_json_dict()) == m
    m2 = Move(s=1, k=0, role=Role.BUILDER, action=Offer((0, 1)), branch=None)
    assert Move.from_json_dict(m2.to_json_dict()) == m2


def test_transcript_json_round_trip_and_version_gate():
    rng = random.Random(11)
    cfg = mb_config(n=5, b=1, seed=3)
    t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng))
    text = t.to_json()
    assert text.endswith("\n")
    back = Transcript.from_json(text)
    assert back.to_json() == text
    assert back.winner is t.winner and back.reason is t.reason

    d = t.to_json_dict()
    d["version"] = "2"
    with pytest.raises(CorruptionError):
        Transcript.from_json_dict(d)


def test_mb_runner_result_fields():
    rng = random.Random(5)
    for seed in range(30):
        cfg = mb_config(n=6, b=2, rules=Rules.FREE, seed=seed)
        t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        if t.winner is Role.BUILDER:
            assert t.reason is Reason.ODD_CYCLE_CLOSED
        else:
            assert t.reason in (Reason.BOARD_EXHAUSTED, Reason.BUILDER_FORFEIT,
                                Reason.NO_LEGAL_BUILDER_MOVE)
        # builder moves: one per round; blocker claims at most b per round
        per_round = {}
        for m in t.moves:
            per_round.setdefault(m.s, []).append(m)
        for s, ms in per_round.items():
            assert sum(1 for m in ms if m.role is Role.BUILDER) == 1
            assert sum(1 for m in ms if m.role is Role.BLOCKER) <= cfg.b


def test_mb_exhaustion_needs_claims():
    # with b large the blocker drains the board in round one
    cfg = mb_config(n=4, b=edge_count(4), rules=Rules.FREE)
    rng = random.Random(0)
    t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng))
    assert t.winner is Role.BLOCKER
    assert t.reason is Reason.BOARD_EXHAUSTED
    claimed = sum(1 for m in t.moves if isinstance(m.action, ClaimEdge))
    assert claimed == edge_count(4)


def test_cw_runner_round_shape():
    rng = random.Random(6)
    for seed in range(30):
        cfg = cw_config(n=6, b=2, seed=seed)
        t = run_client_waiter(cfg, RandomWaiter(rng), RandomClient(rng))
        assert t.winner in (Role.BUILDER, Role.BLOCKER)
        offers = [m for m in t.moves if isinstance(m.action, Offer)]
        picks = [m for m in t.moves if isinstance(m.action, Choose)]
        assert len(offers) == len(picks)
        for off, pick in zip(offers, picks):
            assert pick.action.edge in off.action.edges
            assert 1 <= len(off.action.edges) <= cfg.b + 1


def test_cw_exhaustion_beats_no_offer():
    # board with every edge claimed ends as exhausted even though nothing is
    # offerable either; the exhaustion check comes first
    cfg = cw_config(n=4, b=5, rules=Rules.FREE)
    rng = random.Random(2)
    t = run_client_waiter(cfg, RandomWaiter(rng), RandomClient(rng))
    if t.winner is Role.BLOCKER:
        assert t.reason is Reason.BOARD_EXHAUSTED


def test_cw_no_offerable_edges_win():
    # connected rules, n=4: the client's first pick starts a component; a
    # waiter who burns all edges around it leaves nothing offerable.
    # Construct directly: claim edges so that the client component's incident
    # edges are all claimed while other edges stay unclaimed.
    cfg = cw_config(n=5, b=3)
    state = GameState(cfg)
    state.apply_claim(Role.BUILDER, state.eindex[0][1])
    for v in (0, 1):
        for w in range(5):
            if w == v:
                continue
            e = state.eindex[v][w]
            if state.own[e] == 0:
                state.apply_claim(Role.BLOCKER, e)
    assert state.unclaimed_count > 0
    assert not offerable_edges(state)


def test_validate_offer_rejections():
    cfg = cw_config(n=6, b=1)
    state = GameState(cfg)
    with pytest.raises(RuleViolation):
        validate_offer(state, ())  # empty
    with pytest.raises(RuleViolation):
        validate_offer(state, (0, 1, 2))  # too many for b=1
    with pytest.raises(RuleViolation):
        validate_offer(state, (0, 0))  # repeat
    with pytest.raises(RuleViolation):
        validate_offer(state, (edge_count(6),))  # out of range
    # round one, connected: both edges must share a vertex
    e01 = state.eindex[0][1]
    e23 = state.eindex[2][3]
    e02 = state.eindex[0][2]
    with pytest.raises(RuleViolation):
        validate_offer(state, (e01, e23))
    assert validate_offer(state, (e01, e02)) == (e01, e02)
    # later rounds: offers must touch the client's graph
    state.apply_claim(Role.BUILDER, e01)
    with pytest.raises(RuleViolation):
        validate_offer(state, (e23,))
    assert validate_offer(state, (e02,)) == (e02,)
    state.apply_claim(Role.BLOCKER, e02)
    with pytest.raises(RuleViolation):
        validate_offer(state, (e02,))  # claimed now


def test_offer_size_respects_bias_plus_one():
    rng = random.Random(9)
    cfg = cw_config(n=7, b=0, rules=Rules.FREE)
    t = run_client_waiter(cfg, RandomWaiter(rng), RandomClient(rng))
    for m in t.moves:
        if isinstance(m.action, Offer):
            assert len(m.action.edges) == 1
    # bias 0: the client takes everything, so she wins with an odd cycle
    assert t.winner is Role.BUILDER
    assert t.reason is Reason.ODD_CYCLE_CLOSED


def test_replay_matches_and_detects_corruption():
    rng = random.Random(21)
    for seed in range(12):
        for make in (
            lambda: run_maker_breaker(mb_config(n=6, b=2, seed=seed),
                                      RandomMaker(rng), RandomBreaker(rng)),
            lambda: run_maker_breaker(mb_config(n=6, b=2, rules=Rules.CONNECTED,
                                                seed=seed),
                                      RandomMaker(rng), RandomBreaker(rng)),
            lambda: run_client_waiter(cw_config(n=6, b=2, seed=seed),
                                      RandomWaiter(rng), RandomClient(rng)),
        ):
            t = make()
            redone = replay(t)
            assert redone.digest == t.digest

    t = run_maker_breaker(mb_config(n=6, b=2, seed=99), RandomMaker(rng),
                          RandomBreaker(rng))
    # tamper with the digest
    bad = Transcript(config=t.config, moves=t.moves, winner=t.winner,
                     reason=t.reason, digest="0" * 64)
    with pytest.raises(CorruptionError):
        replay(bad)
    # tamper with the result
    bad = Transcript(config=t.config, moves=t.moves,
                     winner=Role.BUILDER if t.winner is Role.BLOCKER else Role.BLOCKER,
                     reason=t.reason, digest=t.digest)
    with pytest.raises(CorruptionError):
        replay(bad)
    # drop the final move
    bad = Transcript(config=t.config, moves=t.moves[:-1], winner=t.winner,
                     reason=t.reason, digest=t.digest)
    with pytest.raises(CorruptionError):
        replay(bad)


def test_replay_rejects_illegal_move():
    cfg = mb_config(n=5, b=1, rules=Rules.CONNECTED, seed=4)
    rng = random.Random(4)
    t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng))
    # rewrite the second builder claim to a non-incident edge if possible
    moves = list(t.moves)
    builder_idx = [i for i, m in enumerate(moves) if m.role is Role.BUILDER]
    if len(builder_idx) >= 2:
        i = builder_idx[1]
        seen = {m.action.edge for m in moves[:i] if isinstance(m.action, ClaimEdge)}
        state = GameState(cfg)
        for m in moves[:i]:
            if isinstance(m.action, ClaimEdge):
                state.apply_claim(m.role, m.action.edge)
        illegal = [e for e in range(state.E)
                   if state.own[e] == 0 and e not in state.legal_incident]
        if illegal:
            moves[i] = Move(moves[i].s, moves[i].k, Role.BUILDER,
                            ClaimEdge(illegal[0]), moves[i].branch)
            bad = Transcript(config=cfg, moves=moves, winner=t.winner,
                             reason=t.reason, digest=t.digest)
            with pytest.raises(CorruptionError):
                replay(bad)


def test_run_game_dispatch():
    rng = random.Random(3)
    t = run_game(mb_config(n=5, b=1, seed=1), RandomMaker(rng), RandomBreaker(rng))
    assert t.config.variant is Variant.MAKER_BREAKER
    t = run_game(cw_config(n=5, b=1, seed=1), RandomClient(rng), RandomWaiter(rng))
    assert t.config.variant is Variant.CLIENT_WAITER


def test_metrics_recorder_rounds():
    rng = random.Random(13)
    cfg = mb_config(n=7, b=2, seed=13)
    rec = MetricsRecorder()
    t = run_maker_breaker(cfg, RandomMaker(rng), RandomBreaker(rng), hooks=(rec,))
    assert len(rec.snapshots) == t.rounds
    for snap in rec.snapshots:
        assert snap.r_size >= 0
        assert snap.e1r >= 0 and snap.e2r >= 0
        if snap.r_size:
            assert snap.d1 * snap.r_size == snap.e1r


def test_forfeiting_strategies_lose():
    class GiveUp:
        def claim_edge(self, state, claims_left=None):
            return Forfeit(), "test"

        def make_offer(self, state):
            return Forfeit(), "test"

        def choose_from(self, state, offered):
            return Forfeit(), "test"

    rng = random.Random(1)
    t = run_maker_breaker(mb_config(n=5, b=1), GiveUp(), RandomBreaker(rng))
    assert t.winner is Role.BLOCKER and t.reason is Reason.BUILDER_FORFEIT
    t = run_maker_breaker(mb_config(n=5, b=1), RandomMaker(rng), GiveUp())
    assert t.winner is Role.BUILDER and t.reason is Reason.BLOCKER_FORFEIT
    t = run_client_waiter(cw_config(n=5, b=1), GiveUp(), RandomClient(rng))
    assert t.winner is Role.BUILDER and t.reason is Reason.BLOCKER_FORFEIT
    t = run_client_waiter(cw_config(n=5, b=1), GreedyWaiter(), GiveUp())
    assert t.winner is Role.BLOCKER and t.reason is Reason.BUILDER_FORFEIT


def test_cw_win_on_choice_leaves_mates_unclaimed():
    # when the client's pick ends the game, this round's rejected edges must
    # stay unclaimed in the final digest
    rng = random.Random(17)
    for seed in range(40):
        cfg = cw_config(n=5, b=2, rules=Rules.FREE, seed=seed)
        t = run_client_waiter(cfg, RandomWaiter(rng), RandomClient(rng))
        if t.winner is not Role.BUILDER or t.reason is not Reason.ODD_CYCLE_CLOSED:
            continue
        last_offer = [m for m in t.moves if isinstance(m.action, Offer)][-1]
        last_pick = [m for m in t.moves if isinstance(m.action, Choose)][-1]
        state = GameState(cfg)
        for m in t.moves:
            if isinstance(m.action, Choose):
                state.apply_claim(Role.BUILDER, m.action.edge)
            elif isinstance(m.action, Offer) and m is not last_offer:
                pick = next(p for p in t.moves
                            if isinstance(p.action, Choose) and p.s == m.s)
                for e in m.action.edges:
                    if e != pick.action.edge:
                        state.apply_claim(Role.BLOCKER, e)
        assert state.digest() == t.digest
        for e in last_offer.action.edges:
            if e != last_pick.action.edge:
                assert state.own[e] == 0
        break
    else:
        pytest.skip("no odd-cycle client win sampled")


def test_make_strategy_rejects_unknown():
    with pytest.raises(ValueError):
        make_strategy("no-such-strategy", mb_config())


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] in ("builder", "blocker")
    assert Transcript.from_json(lines[1]).config.seed == 42
