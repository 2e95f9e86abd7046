"""Acceptance gate: one test per release criterion, each printing a verdict line."""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oddcycle.board import (
    GameConfig,
    GameState,
    Role,
    Rules,
    Variant,
    edge_count,
)
from oddcycle.engine import Transcript, replay, run_game
from oddcycle.errors import InvariantViolation
from oddcycle.optimizer import (
    breaker_constant_audit,
    continuous_case_value,
    minimize_f,
    overall_constant,
    saved_budget,
)
from oddcycle.solver import exact_threshold, verify_strategy
from oddcycle.strategies import (
    BreakerLossHook,
    ClientCriticalHook,
    DegreeRegularityHook,
    MakerLossHook,
    make_strategy,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# sha256 over the newline-joined transcript digests (each a hash of the final
# ownership array) of every game of criteria 5 and 6, in order: a change that
# moves who ends up holding any edge of these games moves it
CRITERION_5_GAMES_SHA256 = "3ed02cd4f41da1cac24f4ff4f8321b28c33b02bc4588e28c8cc478798014b84f"
CRITERION_6_GAMES_SHA256 = "ff3fe09984c40283f20ea2ac650107105b34d79e6908c520621ca0002065046c"


def games_sha256(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def report(capsys, criterion: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_constants(capsys):
    t0 = time.perf_counter()
    targets = {
        "case11_s0": 1 / 3,
        "case11_s1": 0.3101020514,
        "case12_s0": 0.4188611699,
        "case12_s1": 0.3101020514,
        "case2_s0": 0.5,
        "case2_s1": 1.0,
    }
    bad = []
    for case, want in targets.items():
        got = float(continuous_case_value(case))
        if abs(got - want) > 1e-9:
            bad.append((case, got, want))
    overall = float(overall_constant())
    if abs(overall - (4 - math.sqrt(6)) / 5) > 1e-9:
        bad.append(("overall", overall, (4 - math.sqrt(6)) / 5))
    elapsed = time.perf_counter() - t0
    report(capsys, 1, not bad and elapsed < 1.0,
           f"six case constants and overall {overall:.10f} in {elapsed:.2f}s"
           + (f"; mismatches {bad}" if bad else ""))


def test_criterion_2_argmin_claims(capsys):
    t0 = time.perf_counter()
    bad = []
    pairs = 0
    for n in range(2, 15):
        for b in range(1, n):
            pairs += 1
            for opt in minimize_f(n, b).argmins:
                sizes = opt.shape.a_sizes
                s = opt.shape.s
                if any(a != 1 for a in sizes[1:]):
                    bad.append((n, b, sizes, "upper block size"))
                if s >= 1:
                    for r2 in opt.r2_options:
                        if not r2 + s <= sizes[0] <= r2 + s + 3:
                            bad.append((n, b, sizes, r2))
    elapsed = time.perf_counter() - t0
    report(capsys, 2, not bad and elapsed < 600,
           f"argmin structure over {pairs} (n,b) pairs, n<=14, in {elapsed:.2f}s"
           + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_3_exact_thresholds(capsys):
    t0 = time.perf_counter()
    grid = {
        (Variant.MAKER_BREAKER, Rules.FREE): (3, 4, 5, 6),
        (Variant.MAKER_BREAKER, Rules.CONNECTED): (3, 4, 5, 6),
        (Variant.CLIENT_WAITER, Rules.CONNECTED): (3, 4, 5),
    }
    got: dict = {}
    bad = []
    for (variant, rules), sizes in grid.items():
        for n in sizes:
            bstar = exact_threshold(n, variant, rules)
            got.setdefault(variant.value, {}).setdefault(rules.value, {})[str(n)] = bstar
            if bstar > math.ceil(n / 2) - 1:
                bad.append((variant.value, rules.value, n, bstar, "above ceil(n/2)-1"))
    for n in (3, 4, 5, 6):
        free = got["maker-breaker"]["free"][str(n)]
        conn = got["maker-breaker"]["connected"][str(n)]
        if conn > free:
            bad.append(("mb", n, conn, free, "connected above free"))
    for n in (3, 4, 5):
        if got["client-waiter"]["connected"][str(n)] != math.ceil(n / 2) - 1:
            bad.append(("cw", n, "not exactly ceil(n/2)-1"))
    frozen = json.loads((FIXTURES / "thresholds.json").read_text())
    if got != frozen:
        bad.append(("fixture drift", got))
    elapsed = time.perf_counter() - t0
    report(capsys, 3, not bad and elapsed < 1800,
           f"thresholds {got['maker-breaker']['free']} (free MB), "
           f"{got['client-waiter']['connected']} (connected CW) in {elapsed:.1f}s"
           + (f"; failures {bad}" if bad else ""))


@pytest.mark.slow
def test_criterion_4_exhaustive_client_verification(capsys):
    t0 = time.perf_counter()
    bad = []
    nodes = {}
    for n in (4, 5, 6):
        b = math.ceil(n / 2) - 2
        config = GameConfig(n=n, b=b, variant=Variant.CLIENT_WAITER,
                            rules=Rules.CONNECTED)
        hook = ClientCriticalHook()
        result = verify_strategy(config, lambda: make_strategy("client-connected", config),
                                 Role.BUILDER, hooks=(hook,))
        nodes[n] = result.nodes
        if not result.verified:
            bad.append((n, b, "not verified"))
        if result.violations:
            bad.append((n, b, result.violations[:2]))
    elapsed = time.perf_counter() - t0
    if nodes != {4: 38, 5: 8778, 6: 1099725}:
        bad.append(("node counts", nodes))
    report(capsys, 4, not bad and elapsed < 900,
           f"client strategy wins against all waiters at n=4,5,6 "
           f"(nodes {nodes}) with clean hooks in {elapsed:.1f}s"
           + (f"; failures {bad}" if bad else ""))


def test_criterion_5_breaker_invariants(capsys):
    t0 = time.perf_counter()
    n = 200
    b = math.ceil((n - Fraction(6, 100) * n) / 2)
    assert b == 94
    # the exact value of the binary double 0.06 sits just under 6/100, so
    # this floor lands one below the rational value; the tighter bound is
    # the one enforced
    budget = saved_budget(0.06, n)
    assert budget == 1099
    makers = ["random-maker"] * 34 + ["greedy-maker"] * 33 + ["maker-oc"] * 33
    failures = []
    digests = []
    for i, maker_name in enumerate(makers):
        # the balancing blocker is built for connected builder rules; its
        # guarantees need the builder's graph to stay in one component
        config = GameConfig(n=n, b=b, variant=Variant.MAKER_BREAKER,
                            rules=Rules.CONNECTED, seed=1000 + i)
        maker = make_strategy(maker_name, config)
        breaker = make_strategy("breaker-connected", config)
        hooks = [DegreeRegularityHook(assert_mode=True),
                 BreakerLossHook(int(budget), assert_mode=True)]
        try:
            digests.append(run_game(config, maker, breaker, hooks).digest)
        except InvariantViolation as exc:
            failures.append((maker_name, i, str(exc)))
            break
    combined = games_sha256(digests)
    if not failures and combined != CRITERION_5_GAMES_SHA256:
        failures.append(("transcripts moved", combined))
    elapsed = time.perf_counter() - t0
    report(capsys, 5, not failures and elapsed < 300,
           f"100 assert-mode games at n=200 b=94 vs three makers, "
           f"zero violations, pinned transcripts, in {elapsed:.1f}s"
           + (f"; failures {failures}" if failures else ""))


def test_criterion_6_maker_structure(capsys):
    t0 = time.perf_counter()
    n, b = 100, 31
    losses = 0
    failures = []
    digests = []
    for i in range(1000):
        breaker_name = "random-breaker" if i % 2 == 0 else "greedy-breaker"
        config = GameConfig(n=n, b=b, variant=Variant.MAKER_BREAKER,
                            rules=Rules.FREE, seed=2000 + i)
        maker = make_strategy("maker-oc", config)
        breaker = make_strategy(breaker_name, config)
        hook = MakerLossHook(maker, assert_mode=True)
        try:
            t = run_game(config, maker, breaker, [hook])
        except InvariantViolation as exc:
            failures.append((breaker_name, i, str(exc)))
            break
        digests.append(t.digest)
        if t.winner is Role.BLOCKER:
            losses += 1
    combined = games_sha256(digests)
    if not failures and combined != CRITERION_6_GAMES_SHA256:
        failures.append(("transcripts moved", combined))
    elapsed = time.perf_counter() - t0
    report(capsys, 6, not failures and elapsed < 300,
           f"1000 games at n=100 b=31; {losses} losses, every one a certified "
           f"hub/leaf tree, pinned transcripts, in {elapsed:.1f}s"
           + (f"; failures {failures}" if failures else ""))


def _bipartite(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] < 0:
                    color[y] = color[x] ^ 1
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def test_criterion_7_parity_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = []

    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    config = GameConfig(n=n, b=1)
    forests = probes = 0
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        state = GameState(config)
        acyclic = True
        for u, v in chosen:
            if state.pf.find(u)[0] == state.pf.find(v)[0]:
                acyclic = False
                break
            state.apply_claim(Role.BUILDER, state.eindex[u][v])
        if not acyclic:
            continue
        forests += 1
        eset = set(chosen)
        for u, v in pairs:
            if (u, v) in eset:
                continue
            probes += 1
            got = state.closes_odd_cycle(state.eindex[u][v])
            want = not _bipartite(n, chosen + [(u, v)])
            if got != want:
                mismatches.append((chosen, (u, v)))

    rng = random.Random(424242)
    n = 8
    config = GameConfig(n=n, b=1)
    cases = 0
    while cases < 10_000:
        state = GameState(config)
        claimed = []
        for _ in range(rng.randrange(0, edge_count(n))):
            e = rng.randrange(edge_count(n))
            if state.own[e] == 0 and not state.closes_odd_cycle(e):
                state.apply_claim(Role.BUILDER, e)
                claimed.append(state.pairs[e])
        open_edges = [e for e in range(edge_count(n)) if state.own[e] == 0]
        if not open_edges:
            continue
        probe = rng.choice(open_edges)
        got = state.closes_odd_cycle(probe)
        want = not _bipartite(n, claimed + [state.pairs[probe]])
        if got != want:
            mismatches.append(("random", claimed, state.pairs[probe]))
        cases += 1

    elapsed = time.perf_counter() - t0
    report(capsys, 7, forests == 2932 and not mismatches and elapsed < 120,
           f"parity oracle matched 2-coloring on {forests} forests x "
           f"{probes} probes and {cases} random n=8 cases in {elapsed:.1f}s"
           + (f"; mismatches {mismatches[:2]}" if mismatches else ""))


def test_criterion_8_audit(capsys):
    t0 = time.perf_counter()
    rep = breaker_constant_audit(Fraction(6, 100))
    rows = {r.name: r for r in rep.rows}
    size = rows["size-vs-budget"]
    bad = []
    if not (size.holds and abs(size.lhs - 0.0675) < 1e-12
            and abs(size.rhs - 0.03) < 1e-12):
        bad.append(("size-vs-budget", size))
    for name in ("gain-factor-1", "gain-factor-2"):
        row = rows[name]
        if row.lhs >= 0 or "nonpositive-factor" not in row.flags:
            bad.append((name, row))
    if "vacuous-product-of-nonpositive-factors" not in rows["gain-product-vs-eps"].flags:
        bad.append(("gain-product-vs-eps", rows["gain-product-vs-eps"]))
    elapsed = time.perf_counter() - t0
    report(capsys, 8, not bad and elapsed < 1.0,
           f"audit at eps=0.06: 0.0675 > 0.03 holds, both per-round factors "
           f"flagged negative, in {elapsed:.3f}s"
           + (f"; failures {bad}" if bad else ""))


def test_criterion_9_determinism(capsys):
    t0 = time.perf_counter()
    rng = random.Random(99)
    mb_builders = ["maker-oc", "random-maker", "greedy-maker"]
    mb_blockers = ["breaker-connected", "random-breaker", "greedy-breaker"]
    cw_builders = ["client-connected", "random-client"]
    cw_blockers = ["greedy-waiter", "random-waiter"]
    bad = []
    for i in range(100):
        if rng.random() < 0.5:
            n = rng.randrange(3, 11)
            config = GameConfig(n=n, b=rng.randrange(1, n),
                                variant=Variant.MAKER_BREAKER,
                                rules=rng.choice(list(Rules)),
                                seed=rng.randrange(1 << 30))
            builder = make_strategy(rng.choice(mb_builders), config)
            blocker = make_strategy(rng.choice(mb_blockers), config)
        else:
            n = rng.randrange(3, 9)
            config = GameConfig(n=n, b=rng.randrange(0, 4),
                                variant=Variant.CLIENT_WAITER,
                                rules=Rules.CONNECTED,
                                seed=rng.randrange(1 << 30))
            builder = make_strategy(rng.choice(cw_builders), config)
            blocker = make_strategy(rng.choice(cw_blockers), config)
        transcript = run_game(config, builder, blocker)
        try:
            replay(Transcript.from_json(transcript.to_json()))
        except Exception as exc:
            bad.append((i, config, str(exc)))
    from oddcycle.cli import fixture_text
    if (FIXTURES / "thresholds.json").read_text() != fixture_text():
        bad.append(("fixture regeneration differs",))
    elapsed = time.perf_counter() - t0
    report(capsys, 9, not bad,
           f"100 random-config games replayed to matching digests and the "
           f"threshold fixture regenerated byte-identically in {elapsed:.1f}s"
           + (f"; failures {bad[:3]}" if bad else ""))
