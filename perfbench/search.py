"""The search workload: exact solves, exhaustive verification and the optimizer.

The solver cache and edge tables are module-level in oddcycle.solver, so a
second solve of a board in one process does no work.  Every round therefore
runs in a fresh child process (`python3 perfbench/search.py --child`), which
times each search call and prints one JSON line; the parent checks it.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

from harness import OUT, ROOT, SpeedProbe, boot_clock, child_env, peak_rss_mb
from minimax import BOARDS, winner as minimax_winner
from referee import Rejected, referee, self_test

MB, CW = "maker-breaker", "client-waiter"
BUILDER, BLOCKER = "builder", "blocker"

# the fixture's threshold grid, then the n=7 Maker-Breaker thresholds
THRESHOLDS = ([(MB, "free", n) for n in (3, 4, 5, 6)]
              + [(MB, "connected", n) for n in (3, 4, 5, 6)]
              + [(CW, "connected", n) for n in (3, 4, 5)]
              + [(MB, "free", 7), (MB, "connected", 7)])
# (strategy, side, variant, rules, n, b, options, expected outcome)
VERIFICATIONS = [
    ("client-connected", BUILDER, CW, "connected", 5, 1, {}, True),
    ("client-connected", BUILDER, CW, "connected", 6, 0, {}, True),
    ("client-connected", BUILDER, CW, "connected", 5, 1, {"lookahead": "claim-only"}, False),
    ("breaker-connected", BLOCKER, MB, "connected", 6, 1, {}, False),
    ("breaker-connected", BLOCKER, MB, "connected", 6, 2, {}, True),
    ("breaker-connected", BLOCKER, MB, "connected", 6, 3, {}, True),
]
ORACLE_BOARDS = [(MB, rules, n, b) for n, b in ((4, 1), (5, 1), (5, 2))
                 for rules in ("free", "connected")] + [(CW, "connected", 4, 0),
                                                        (CW, "connected", 4, 1),
                                                        (CW, "connected", 5, 0)]
for _board in ORACLE_BOARDS:
    for _side in (BUILDER, BLOCKER):
        VERIFICATIONS.append(("solver-oracle", _side, *_board, {}, None))
MINIMIZE = [(24, 6)]


def _op_label(op) -> str:
    kind, *args = op
    if kind == "verify":
        strategy, side, variant, rules, n, b, options, _ = args[0]
        extra = "".join(f",{k}={v}" for k, v in options.items())
        return f"verify {strategy}/{side} {variant} {rules} n={n} b={b}{extra}"
    return f"{kind} " + " ".join(str(a) for a in args)


OPS = ([("threshold", *t) for t in THRESHOLDS] + [("verify", v) for v in VERIFICATIONS]
       + [("minimize", *m) for m in MINIMIZE])


# -- child side -------------------------------------------------------------------


def _child(trace: bool):
    """Run one round in this fresh process and print its JSON record."""
    from harness import import_oddcycle

    import_oddcycle()
    from oddcycle import GameConfig, Role, optimizer, solver, strategies

    def config(variant, rules, n, b):
        return GameConfig(n=n, b=b, variant=variant, rules=rules)

    def run(op):
        kind, *args = op
        if kind == "threshold":
            return {"threshold": solver.exact_threshold(args[2], args[0], args[1])}
        if kind == "minimize":
            res = optimizer.minimize_f(*args)
            return {"value": [res.value.numerator, res.value.denominator],
                    "argmins": [[list(o.shape.a_sizes), o.edges, list(o.r2_options)]
                                for o in res.argmins]}
        name, side, variant, rules, n, b, options, expected = args[0]
        cfg = config(variant, rules, n, b)
        role = Role(side)
        # the criterion-4 hook, on the client strategy that is meant to win
        hooks = [strategies.ClientCriticalHook()] if name == "client-connected" and expected else []

        def factory():
            if name == "solver-oracle":
                return strategies.make_strategy(name, cfg, role=role)
            return strategies.make_strategy(name, cfg, **options)

        res = solver.verify_strategy(cfg, factory, role, hooks=hooks)
        ce = res.counterexample
        return {"verified": res.verified, "nodes": res.nodes, "violations": len(res.violations),
                "counterexample": None if ce is None else json.loads(ce.to_json())}

    # warm-up on boards the timed list never touches
    solver.solve_game(config(CW, "free", 4, 1))
    optimizer.minimize_f(10, 3)

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    timed_start = boot_clock()
    ops, probe = [], SpeedProbe(during=not trace)  # no interruptions inside the spans
    for op in OPS:
        result, error, seconds, kernel_s = probe.time_op(lambda: run(op))
        ops.append({"name": _op_label(op), "s": seconds, "kernel_s": kernel_s, "error": error,
                    "result": result})
    rss = peak_rss_mb()
    record = {"wall": sum(op["s"] for op in ops), "ops": ops, "speed": probe.samples,
              "rss_mb": rss, "timed_start_boot": timed_start}
    if tracer is not None:
        tracer.uninstall()
        record["layer"] = tracer.layer_values()
        tracer.write(OUT / "search-spans.json", {"workload": "search"})
    # data for the checks, computed after the timed phase
    boards = set(BOARDS) | {(v, r, n, b) for _, _, v, r, n, b, _, _ in VERIFICATIONS}
    record["winners"] = [[*board, solver.solve_game(config(*board)).winner.value]
                         for board in sorted(boards)]
    print(json.dumps(record))


# -- parent side ----------------------------------------------------------------------


class SearchWorkload:
    name = "search"
    speed_exponent = 0.8  # see harness.REFERENCE_KERNEL_S
    required_tampers = {"result", "digest", "unclaimed", "turn", "offer", "sequence",
                        "bipartite", "connected"}

    def __init__(self, seed: int):
        # the boards are fixed; the seed has no input to choose here
        self.seed = seed

    def setup(self):
        pass

    def _spawn(self, trace: bool) -> dict:
        cmd = [sys.executable, str(ROOT / "perfbench" / "search.py"), "--child",
               "--trace", "1" if trace else "0"]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"search child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run_round(self) -> dict:
        return self._spawn(trace=False)

    def traced_round(self, baseline: dict) -> dict:
        return self._spawn(trace=True)

    def check(self, rounds: list[dict], layer: dict | None) -> tuple[list[str], dict]:
        first = rounds[0]
        solved = {tuple(w[:4]): w[4] for w in first["winners"]}
        truth = {board: minimax_winner(*board) for board in BOARDS}
        problems, accepted = _solver_problems(first, solved, truth)
        try:
            fired = self_test(accepted)
            if not self.required_tampers <= fired:
                problems.append(f"referee self-test never tripped "
                                f"{sorted(self.required_tampers - fired)}")
        except AssertionError as exc:
            problems.append(f"referee self-test: {exc}")
        for what, record, flipped_solved in _flips(first, solved):
            if not _solver_problems(record, flipped_solved, truth)[0]:
                problems.append(f"the checks accept a flipped result: {what}")
        for r in rounds[1:]:
            if _behaviour(r) != _behaviour(first):
                problems.append("a later round computed different results than the first")
        if layer is not None and not layer.get("verify.clones_per_node", 0) > 0:
            problems.append("traced run saw no GameState clones in verification")
        digest = hashlib.sha256(json.dumps(_behaviour(first), sort_keys=True).encode()).hexdigest()
        return problems, {"thresholds": {" ".join(map(str, k)): v
                                         for k, v in _thresholds(first).items()},
                          "combined_digest": digest}

    def peak_rss(self, rounds: list[dict]) -> float:
        return max(r["rss_mb"] for r in rounds)


def _behaviour(record: dict):
    """Everything a search round decided, without its timings."""
    return [[op["name"], op["error"], op["result"]] for op in record["ops"]]


def _thresholds(record: dict) -> dict:
    return {t: op["result"]["threshold"] for t, op in zip(THRESHOLDS, record["ops"])
            if op["error"] is None}


def _solver_problems(record: dict, solved: dict, truth: dict):
    """Check one round's results; returns (problems, accepted counterexamples)."""
    problems: list[str] = []
    by_label = {op["name"]: op for op in record["ops"]}
    for board, want in truth.items():
        if solved.get(board) != want:
            problems.append(f"solve_game {board} says {solved.get(board)}, minimax {want}")

    thresholds = _thresholds(record)
    fixture = json.loads((ROOT / "fixtures" / "thresholds.json").read_text())
    for (variant, rules, n), bstar in thresholds.items():
        if bstar > math.ceil(n / 2) - 1:
            problems.append(f"threshold {variant} {rules} n={n} is {bstar} > ceil(n/2)-1")
        free = thresholds.get((MB, "free", n))
        if variant == MB and rules == "connected" and free is not None and bstar > free:
            problems.append(f"connected threshold {bstar} above free {free} at n={n}")
        # the threshold's own scan: the builder wins below it, the blocker at it
        for b in range(1 if variant == MB else 0, bstar + 1):
            w = solved.get((variant, rules, n, b))
            if w is not None and w != (BLOCKER if b == bstar else BUILDER):
                problems.append(f"{variant} {rules} n={n} b={b}: winner {w} "
                                f"contradicts threshold {bstar}")
        frozen = fixture.get(variant, {}).get(rules, {}).get(str(n))
        if frozen is not None and frozen != bstar:
            problems.append(f"threshold {variant} {rules} n={n} = {bstar}, fixture {frozen}")

    # verification agrees with the solver, and every refutation is a legal game
    accepted = []
    for v in VERIFICATIONS:
        name, side, variant, rules, n, b, options, expected = v
        label = _op_label(("verify", v))
        op = by_label[label]
        if op["error"] is not None:
            continue
        res = op["result"]
        winner = solved.get((variant, rules, n, b))
        if expected is None:
            expected = side == winner
        if res["verified"] != expected:
            problems.append(f"{label}: verified={res['verified']}, expected {expected}")
        if res["verified"] and side != winner:
            problems.append(f"{label}: verified on the side solve_game calls the loser")
        if res["violations"]:
            problems.append(f"{label}: {res['violations']} hook violations")
        if res["verified"]:
            continue
        ce = res["counterexample"]
        if ce is None:
            problems.append(f"{label}: refuted without a counterexample")
            continue
        try:
            verdict = referee(ce)
        except Rejected as exc:
            problems.append(f"{label}: counterexample rejected: {exc}")
            continue
        if verdict["winner"] == side:
            problems.append(f"{label}: the counterexample is a win for {side}")
        accepted.append((ce, None))
    problems.extend(_check_optimizer(record))
    return problems, accepted


def _flips(record: dict, solved: dict):
    """Copies of a round with one result flipped; each must fail a check."""
    board = next(b for b in BOARDS if b[0] == MB and b[2] == 5)
    yield f"solve_game {board}", record, {
        **solved, board: BUILDER if solved.get(board) == BLOCKER else BLOCKER}

    def edited(index, edit):
        copy = json.loads(json.dumps(record))
        edit(copy["ops"][index]["result"])
        return copy

    i = THRESHOLDS.index((MB, "connected", 6))
    yield "connected threshold n=6 raised", edited(
        i, lambda r: r.update(threshold=r["threshold"] + 1)), solved
    i = len(THRESHOLDS)
    yield "first verification", edited(i, lambda r: r.update(verified=not r["verified"])), solved
    i = len(OPS) - 1
    yield "argmin edge count", edited(
        i, lambda r: r["argmins"][0].__setitem__(1, r["argmins"][0][1] + 1)), solved


def _check_optimizer(record: dict) -> list[str]:
    from oddcycle.optimizer import Shape, build_min_graph, gnb_membership

    problems = []
    for (n, b), op in zip(MINIMIZE, record["ops"][-len(MINIMIZE):]):
        if op["error"] is not None:
            continue
        for sizes, edges, r2_options in op["result"]["argmins"]:
            shape = Shape(n=n, b=b, a_sizes=tuple(sizes))
            s = shape.s
            if any(a != 1 for a in sizes[1:]):
                problems.append(f"minimize_f({n},{b}) argmin {sizes}: upper block size")
            for r2 in r2_options:
                if s >= 1 and not r2 + s <= sizes[0] <= r2 + s + 3:
                    problems.append(f"minimize_f({n},{b}) argmin {sizes}, r2={r2}: a_0 bound")
                graph, hubs, blocks = build_min_graph(shape, r2)
                if len(graph) != edges:
                    problems.append(f"minimize_f({n},{b}) argmin {sizes}, r2={r2}: built "
                                    f"{len(graph)} edges, minimum says {edges}")
                ok, why = gnb_membership(n, b, graph, hubs, blocks)
                if not ok:
                    problems.append(f"minimize_f({n},{b}) argmin {sizes}, r2={r2}: {why}")
    return problems


if __name__ == "__main__":
    if "--child" in sys.argv:
        _child(trace=sys.argv[sys.argv.index("--trace") + 1] == "1")
    else:
        sys.exit("search.py is run by perfbench/run.py")
