"""Board-level tests: edge ids, parity forest, and counter bookkeeping."""

import itertools
import random

import pytest

from oddcycle.board import (
    BLOCKER,
    BUILDER,
    MAX_N,
    UNCLAIMED,
    GameConfig,
    GameState,
    ParityForest,
    Role,
    Rules,
    Status,
    Variant,
    edge_count,
    edge_endpoints,
    edge_index,
)
from oddcycle.errors import RuleViolation, StateError


def test_edge_index_roundtrip():
    for n in range(3, 12):
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                eid = edge_index(u, v, n)
                assert edge_index(v, u, n) == eid
                assert edge_endpoints(eid, n) == (u, v)
                seen.add(eid)
        assert seen == set(range(edge_count(n)))


def test_edge_index_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_index(0, 5, 5)
    with pytest.raises(ValueError):
        edge_endpoints(edge_count(5), 5)


def test_edge_tables_refuse_boards_above_max_n():
    # raised before any table is built: K_1000000 would need about 65 TB
    with pytest.raises(ValueError):
        edge_index(0, 1, 10**6)
    with pytest.raises(ValueError):
        edge_endpoints(0, MAX_N + 1)


def two_colorable(n, edges):
    """Brute-force check that the graph has a proper 2-coloring."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def all_forests(n):
    """Yield every edge subset of K_n that is a forest (small n only)."""
    all_edges = list(itertools.combinations(range(n), 2))
    for r in range(n):
        for subset in itertools.combinations(all_edges, r):
            if two_colorable(n, subset) and _acyclic(n, subset):
                yield subset


def _acyclic(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_parity_forest_against_coloring_oracle_exhaustive():
    # Build each forest on <= 6 vertices edge by edge, then ask the forest
    # about every remaining pair: adding the pair creates an odd cycle exactly
    # when the graph plus that edge is not 2-colorable.
    for n in range(3, 7):
        for forest in all_forests(n):
            pf = ParityForest(n)
            for u, v in forest:
                assert pf.union(u, v)
            for u, v in itertools.combinations(range(n), 2):
                if (u, v) in forest:
                    continue
                odd = pf.find(u) == pf.find(v)
                assert odd == (not two_colorable(n, list(forest) + [(u, v)]))


def test_parity_forest_random_graphs():
    # Random (possibly cyclic) bipartite-so-far edge sequences on 8 vertices.
    rng = random.Random(20260819)
    n = 8
    for _ in range(2000):
        pf = ParityForest(n)
        edges = []
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        for u, v in pairs:
            if pf.find(u) == pf.find(v):
                continue
            if rng.random() < 0.4:
                pf.union(u, v)
                edges.append((u, v))
        for u, v in pairs[:10]:
            if (u, v) in edges:
                continue
            assert (pf.find(u) == pf.find(v)) == (not two_colorable(n, edges + [(u, v)]))


def same_root(pf, u, v):
    return pf.find(u)[0] == pf.find(v)[0]


def naive_counters(state):
    """Recompute every derived counter from the raw ownership array."""
    n = state.n
    col = [state.col(v) for v in range(n)]
    deg = [[0, 0, 0] for _ in range(n)]
    threats = set()
    saved_nb = 0
    cross_bld = 0
    e_vr = [0, 0]
    e_vv = 0
    incident = set()
    bld_vertices = {v for v in range(n) if col[v] < 2}
    for eid in range(state.E):
        u, v = state.endpoints(eid)
        o = state.own[eid]
        if o == BLOCKER:
            deg[u][col[v]] += 1
            deg[v][col[u]] += 1
            if col[u] < 2 and col[v] < 2:
                e_vv += 1
            elif col[u] < 2:
                e_vr[col[u]] += 1
            elif col[v] < 2:
                e_vr[col[v]] += 1
        else:
            if col[u] < 2 and col[v] < 2 and col[u] != col[v]:
                saved_nb += 1
                if o == BUILDER:
                    cross_bld += 1
            if o == UNCLAIMED:
                if col[u] < 2 and col[u] == col[v]:
                    threats.add(eid)
                if u in bld_vertices or v in bld_vertices:
                    incident.add(eid)
    return deg, threats, saved_nb, cross_bld, e_vr, e_vv, incident


def assert_counters_match(state):
    deg, threats, saved_nb, cross_bld, e_vr, e_vv, incident = naive_counters(state)
    assert [list(state.deg_blk[v]) for v in range(state.n)] == deg
    assert state.threat_edges == threats
    assert state.saved_not_blocker == saved_nb
    assert state.builder_cross_count == cross_bld
    assert state.e_blk_vr == e_vr
    assert state.e_blk_vv == e_vv
    assert state.legal_incident == incident
    # the degree buckets of each part hold exactly the R vertices, each in
    # the bucket of its blocker degree into that part
    for i in (0, 1):
        if state.r_set:
            degs = [state.deg_blk[v][i] for v in state.r_set]
            assert state.deg_min[i] == min(degs)
            assert state.deg_max[i] == max(degs)
        for d, bucket in state.deg_index[i].items():
            assert bucket <= state.r_set
            for v in bucket:
                assert state.deg_blk[v][i] == d
        for v in state.r_set:
            assert v in state.deg_index[i][state.deg_blk[v][i]]


def play_random_prefix(rng, n, rules, moves):
    cfg = GameConfig(n=n, b=1, variant=Variant.MAKER_BREAKER, rules=rules)
    state = GameState(cfg)
    for _ in range(moves):
        if state.status is not Status.IN_PROGRESS:
            break
        role = Role.BUILDER if rng.random() < 0.5 else Role.BLOCKER
        if role is Role.BUILDER:
            legal = state.legal_builder_moves()
            if not legal:
                break
            # avoid ending the game so counters stay observable
            safe = [e for e in legal if not state.closes_odd_cycle(e)]
            if not safe:
                break
            state.apply_claim(role, rng.choice(sorted(safe)))
        else:
            free = [e for e in range(state.E) if state.own[e] == UNCLAIMED]
            if not free:
                break
            state.apply_claim(role, rng.choice(free))
    return state


def test_counters_random_free_play():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randrange(4, 9)
        state = play_random_prefix(rng, n, Rules.FREE, rng.randrange(1, edge_count(n)))
        assert_counters_match(state)


def test_counters_random_connected_play():
    rng = random.Random(8)
    for trial in range(300):
        n = rng.randrange(4, 9)
        state = play_random_prefix(rng, n, Rules.CONNECTED, rng.randrange(1, edge_count(n)))
        assert_counters_match(state)
        # under connected rules the builder graph has one component, so the
        # part labels never get rewritten once assigned
        assert all(state.part[v] in (0, 1, 2) for v in range(state.n))


def test_clone_is_deep():
    rng = random.Random(9)
    state = play_random_prefix(rng, 7, Rules.FREE, 10)
    twin = state.clone()
    assert twin.own == state.own
    assert twin.digest() == state.digest()
    free = [e for e in range(state.E) if state.own[e] == UNCLAIMED]
    if free and state.status is Status.IN_PROGRESS:
        twin.apply_claim(Role.BLOCKER, free[0])
        assert state.own[free[0]] == UNCLAIMED
        assert_counters_match(state)
        assert_counters_match(twin)


def test_part_labels_consistent_with_parity():
    # any two builder vertices in the same component share a part label
    # exactly when they have equal parity
    rng = random.Random(10)
    for trial in range(200):
        n = rng.randrange(4, 9)
        state = play_random_prefix(rng, n, Rules.FREE, rng.randrange(1, edge_count(n)))
        for u in range(n):
            for v in range(u + 1, n):
                if state.part[u] and state.part[v] and same_root(state.pf, u, v):
                    same_label = state.part[u] == state.part[v]
                    assert same_label == (state.pf.find(u) == state.pf.find(v))


def test_odd_cycle_detection_in_play():
    cfg = GameConfig(n=5, b=1)
    state = GameState(cfg)
    e = lambda u, v: edge_index(u, v, 5)
    state.apply_claim(Role.BUILDER, e(0, 1))
    state.apply_claim(Role.BUILDER, e(1, 2))
    assert state.closes_odd_cycle(e(0, 2))
    assert not state.closes_odd_cycle(e(2, 3))
    state.apply_claim(Role.BUILDER, e(0, 2))
    assert state.status is Status.BUILDER_WIN


def test_even_cycle_is_not_a_win():
    cfg = GameConfig(n=5, b=1)
    state = GameState(cfg)
    e = lambda u, v: edge_index(u, v, 5)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        state.apply_claim(Role.BUILDER, e(u, v))
    assert not state.closes_odd_cycle(e(0, 3))
    state.apply_claim(Role.BUILDER, e(0, 3))
    assert state.status is Status.IN_PROGRESS
    assert state.builder_cyclic
    assert state.closes_odd_cycle(e(0, 2))


def test_connected_rule_enforced():
    cfg = GameConfig(n=6, b=1, rules=Rules.CONNECTED)
    state = GameState(cfg)
    e = lambda u, v: edge_index(u, v, 6)
    state.apply_claim(Role.BUILDER, e(0, 1))
    with pytest.raises(RuleViolation):
        state.apply_claim(Role.BUILDER, e(3, 4))
    state.apply_claim(Role.BUILDER, e(1, 2))
    assert e(2, 3) in state.legal_builder_moves()
    assert e(4, 5) not in state.legal_builder_moves()


def test_claimed_edge_rejected():
    cfg = GameConfig(n=4, b=1)
    state = GameState(cfg)
    state.apply_claim(Role.BLOCKER, 0)
    with pytest.raises(RuleViolation):
        state.apply_claim(Role.BUILDER, 0)
    with pytest.raises(RuleViolation):
        state.apply_claim(Role.BLOCKER, 0)
    with pytest.raises(StateError):
        state.closes_odd_cycle(0)


def test_config_validation():
    with pytest.raises(ValueError):
        GameConfig(n=2, b=1)
    GameConfig(n=MAX_N, b=1)
    with pytest.raises(ValueError, match="largest supported board"):
        GameConfig(n=MAX_N + 1, b=1)
    with pytest.raises(ValueError):
        GameConfig(n=5, b=0, variant=Variant.MAKER_BREAKER)
    GameConfig(n=5, b=0, variant=Variant.CLIENT_WAITER)
    for n, b in (("5", 1), (5, "1"), (5.0, 1), (5, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            GameConfig(n=n, b=b)


def test_merge_flips_smaller_component():
    # two separate paths with clashing labels get reconciled on merge
    cfg = GameConfig(n=8, b=1, rules=Rules.FREE)
    state = GameState(cfg)
    e = lambda u, v: edge_index(u, v, 8)
    state.apply_claim(Role.BUILDER, e(0, 1))  # 0 -> part1, 1 -> part2
    state.apply_claim(Role.BUILDER, e(1, 2))  # 2 -> part1
    state.apply_claim(Role.BUILDER, e(4, 5))  # 4 -> part1, 5 -> part2
    # 0 and 4 share a label; merging across (0,4) must flip one side
    state.apply_claim(Role.BUILDER, e(0, 4))
    assert state.part[0] != state.part[4]
    assert state.part[0] != state.part[1]
    assert state.part[4] != state.part[5]
    assert_counters_match(state)
    # smaller component (4,5) flipped, larger kept its labels
    assert state.part[0] == 1 and state.part[2] == 1 and state.part[1] == 2


def test_merge_flips_match_naive_counters():
    # free-rule random games, mostly blocker claims: after every merge that
    # flips a component the incrementally updated counters equal a recount,
    # and the flipped side is the smaller component (v's, the larger
    # endpoint's, on a tie)
    rng = random.Random(12)
    merges = ties = 0
    blocked_toward = set()  # classes of outside vertices the flipped rows blocked
    for trial in range(24):
        n = rng.randrange(20, 61)
        state = GameState(GameConfig(n=n, b=1, rules=Rules.FREE))
        order = list(range(state.E))
        rng.shuffle(order)
        for eid in order:
            if state.status is not Status.IN_PROGRESS:
                break
            if rng.random() < 0.7 or state.closes_odd_cycle(eid):
                state.apply_claim(Role.BLOCKER, eid)
                continue
            u, v = state.pairs[eid]
            merge = (state.part[u] and state.part[u] == state.part[v]
                     and not same_root(state.pf, u, v))
            if merge:
                comp_u, comp_v = ({w for w in range(n) if state.part[w]
                                   and same_root(state.pf, w, x)} for x in (u, v))
                before = state.part[:]
            state.apply_claim(Role.BUILDER, eid)
            if not merge:
                continue
            flipped = {w for w in range(n) if state.part[w] != before[w]}
            assert flipped == (comp_v if len(comp_v) <= len(comp_u) else comp_u)
            assert_counters_match(state)
            merges += 1
            ties += len(comp_u) == len(comp_v)
            for w in flipped:
                for x in range(n):
                    if x not in flipped and state.own[state.eindex[w][x]] == BLOCKER:
                        blocked_toward.add("V" if state.part[x] else "R")
        assert_counters_match(state)
    assert merges > 100 and ties > 0
    assert blocked_toward == {"R", "V"}


def test_saved_unclaimed_tracks_cross_pairs():
    rng = random.Random(11)
    for trial in range(100):
        n = rng.randrange(4, 9)
        state = play_random_prefix(rng, n, Rules.FREE, rng.randrange(1, edge_count(n)))
        expected = 0
        for eid in range(state.E):
            if state.own[eid] != UNCLAIMED:
                continue
            u, v = state.endpoints(eid)
            if state.part[u] and state.part[v] and state.part[u] != state.part[v]:
                expected += 1
        assert state.saved_unclaimed() == expected
