"""Operator surface: play games, run tournaments, solve, verify, optimize, audit.

Exit codes follow one convention across subcommands: 0 on success, 1 when a
checked property fails (invariant breach in assert mode, refuted verification,
fixture or digest mismatch), 2 on usage errors and capacity limits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .board import GameConfig, Role, Rules, Variant
from .engine import GameHook, MetricsRecorder, Transcript, replay, run_game
from .errors import CapacityError, CorruptionError, InvariantViolation
from .optimizer import (
    CASE_NAMES,
    breaker_constant_audit,
    continuous_case_value,
    minimize_f,
    overall_constant,
)
from .solver import ENV_OVERRIDE, exact_threshold, solve_game, verify_strategy
from .strategies import (
    BreakerLossHook,
    ClientCriticalHook,
    ClientTreeHook,
    DegreeRegularityHook,
    MakerLossHook,
    MakerOddCycle,
    make_strategy,
)


class UsageError(Exception):
    """Bad flag combination or argument value; maps to exit code 2."""


# -- run configuration ---------------------------------------------------------


DEFAULT_BUILDER = {Variant.MAKER_BREAKER: "maker-oc",
                   Variant.CLIENT_WAITER: "client-connected"}
DEFAULT_BLOCKER = {Variant.MAKER_BREAKER: "breaker-connected",
                   Variant.CLIENT_WAITER: "greedy-waiter"}


def round_bias(value: Fraction, mode: str) -> int:
    """Round a fractional bias to an integer edge count.

    ceil is the default so a fraction never under-provisions the blocker;
    nearest rounds half up.
    """
    if mode == "ceil":
        return math.ceil(value)
    if mode == "floor":
        return math.floor(value)
    if mode == "nearest":
        return math.floor(value + Fraction(1, 2))
    raise UsageError(f"unknown rounding mode: {mode!r}")


@dataclass
class RunConfig:
    """Resolved parameters of a play or tournament invocation."""

    n: int
    b: int | None = None
    bias_frac: str | None = None
    round: str = "ceil"
    variant: str = Variant.MAKER_BREAKER.value
    rules: str = Rules.FREE.value
    builders: tuple[str, ...] = ()
    blockers: tuple[str, ...] = ()
    games: int = 1
    seed: int = 0
    assert_mode: bool = False
    hooks: tuple[str, ...] = ()
    jobs: int = 1
    capacity: str | None = None

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise UsageError(f"n must be an integer, got {self.n!r}")
        self.variant = Variant(self.variant)
        self.rules = Rules(self.rules)
        if not self.builders:
            self.builders = (DEFAULT_BUILDER[self.variant],)
        if not self.blockers:
            self.blockers = (DEFAULT_BLOCKER[self.variant],)
        if self.games < 1:
            raise UsageError("need at least one game")
        if self.jobs < 1:
            raise UsageError("need at least one worker")

    @property
    def bias(self) -> int:
        if self.b is not None:
            return self.b
        if self.bias_frac is None:
            raise UsageError("one of --b and --bias-frac is required")
        return round_bias(Fraction(self.bias_frac) * self.n, self.round)

    def game_config(self, seed: int) -> GameConfig:
        return GameConfig(n=self.n, b=self.bias, variant=self.variant,
                          rules=self.rules, seed=seed)

    def game_payload(self, seed: int, builder: str, blocker: str,
                     keep_transcript: bool) -> dict:
        """The plain-dict description of one game that _play_one runs."""
        return {"config": self.game_config(seed).to_json_dict(),
                "builder": builder, "blocker": blocker, "hooks": list(self.hooks),
                "assert_mode": self.assert_mode, "keep_transcript": keep_transcript}

    def game_seed(self, pairing_index: int, game_index: int) -> int:
        """Deterministic per-game seed: base + pairing block + index."""
        return self.seed + pairing_index * self.games + game_index


_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))


def _load_run_config(args) -> RunConfig:
    """CLI flags override config-file values, which override defaults."""
    merged: dict = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config}: {exc}")
        unknown = set(loaded) - set(_RUN_FIELDS)
        if unknown:
            raise UsageError(f"config file keys not understood: {sorted(unknown)}")
        merged.update(loaded)
    for name in _RUN_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    for name in ("builders", "blockers", "hooks"):
        if isinstance(merged.get(name), str):
            merged[name] = tuple(x for x in merged[name].split(",") if x)
        elif isinstance(merged.get(name), list):
            merged[name] = tuple(merged[name])
    if "n" not in merged:
        raise UsageError("--n is required")
    try:
        return RunConfig(**merged)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))


def _apply_capacity(spec: str | None):
    if spec:
        os.environ[ENV_OVERRIDE] = spec


# -- strategies and hooks --------------------------------------------------------


def _build_hooks(specs, assert_mode: bool, builder) -> list[GameHook]:
    hooks: list[GameHook] = []
    for spec in specs:
        name, _, arg = spec.partition("=")
        if name == "degree-regularity":
            hooks.append(DegreeRegularityHook(assert_mode))
        elif name == "breaker-loss":
            if not arg:
                raise UsageError("hook needs a budget, e.g. breaker-loss=1099")
            hooks.append(BreakerLossHook(int(arg), assert_mode))
        elif name == "maker-loss":
            if not isinstance(builder, MakerOddCycle):
                raise UsageError("maker-loss hook requires the maker-oc builder")
            hooks.append(MakerLossHook(builder, assert_mode))
        elif name == "client-critical":
            hooks.append(ClientCriticalHook(assert_mode))
        elif name == "client-tree":
            hooks.append(ClientTreeHook(assert_mode))
        else:
            raise UsageError(f"unknown hook: {name!r}")
    return hooks


class _StateTracker(GameHook):
    """Remembers the last observed (s, k) position so an assert-mode breach
    can be reported with the offending state."""

    def __init__(self):
        super().__init__()
        self.s = 0
        self.k = 0
        self.state = None

    def after_claim(self, state, move):
        self.s = move.s
        self.k = move.k
        self.state = state

    def after_round(self, state, s):
        self.s = s
        self.k = 0
        self.state = state

    def describe(self) -> str:
        # the tracker runs first among the hooks, so a breach raised by a later
        # hook leaves the board as the tracker last saw it
        owners = "" if self.state is None else bytes(self.state.own).hex()
        return json.dumps({"s": self.s, "k": self.k, "owners": owners}, sort_keys=True)


# -- game execution ---------------------------------------------------------------


def _play_one(payload: dict) -> dict:
    """Run one game described by a plain dict; shaped for worker pools."""
    config = GameConfig.from_json_dict(payload["config"])
    builder = make_strategy(payload["builder"], config, role=Role.BUILDER)
    blocker = make_strategy(payload["blocker"], config, role=Role.BLOCKER)
    hooks = _build_hooks(payload["hooks"], payload["assert_mode"], builder)
    tracker = _StateTracker()
    recorder = MetricsRecorder()
    try:
        transcript = run_game(config, builder, blocker, [tracker, *hooks, recorder])
    except InvariantViolation as exc:
        return {"violation_stop": str(exc), "state": tracker.describe()}
    messages = [m for h in hooks for m in h.violations]
    final = recorder.snapshots[-1] if recorder.snapshots else None
    result = {
        "winner": transcript.winner.value,
        "reason": transcript.reason.value,
        "rounds": transcript.rounds,
        "violations": len(messages),
        "messages": messages[:5],
        "final": None if final is None else {
            "d1": float(final.d1),
            "d2": float(final.d2),
            "saved_unclaimed": final.saved_unclaimed,
            "threats": final.threats,
        },
    }
    if payload.get("keep_transcript"):
        result["transcript"] = transcript.to_json()
    return result


@dataclass
class TournamentReport:
    """Aggregate results of one builder/blocker pairing."""

    pairing: str
    games: int
    builder_wins: int
    blocker_wins: int
    mean_rounds: float
    violations: int
    reasons: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def __post_init__(self):
        if self.builder_wins + self.blocker_wins != self.games:
            raise AssertionError("win counts must sum to games played")

    def csv_row(self) -> list:
        return [self.pairing, self.games, self.builder_wins, self.blocker_wins,
                f"{self.mean_rounds:.4f}", self.violations]


CSV_HEADER = ["pairing", "games", "builder_wins", "blocker_wins",
              "mean_rounds", "violations"]


def _aggregate(pairing: str, results: list[dict]) -> TournamentReport:
    builder_wins = sum(1 for r in results if r["winner"] == Role.BUILDER.value)
    reasons: dict = {}
    messages: list = []
    for r in results:
        reasons[r["reason"]] = reasons.get(r["reason"], 0) + 1
        messages.extend(r["messages"])
    finals = [r["final"] for r in results if r["final"]]
    metrics = {}
    if finals:
        metrics = {
            "mean_final_cross_degree": [
                sum(f["d1"] for f in finals) / len(finals),
                sum(f["d2"] for f in finals) / len(finals),
            ],
            "mean_final_saved_unclaimed":
                sum(f["saved_unclaimed"] for f in finals) / len(finals),
            "mean_final_threats": sum(f["threats"] for f in finals) / len(finals),
        }
    return TournamentReport(
        pairing=pairing,
        games=len(results),
        builder_wins=builder_wins,
        blocker_wins=len(results) - builder_wins,
        mean_rounds=sum(r["rounds"] for r in results) / len(results),
        violations=sum(r["violations"] for r in results),
        reasons=reasons,
        metrics=metrics,
        messages=messages[:20],
    )


def _report_stop(result: dict):
    """Print the breach that stopped an assert-mode game, and its state."""
    print(f"invariant violation: {result['violation_stop']}", file=sys.stderr)
    print(f"state: {result['state']}", file=sys.stderr)


def run_tournament(run: RunConfig, keep_transcripts: bool = False
                   ) -> tuple[list[TournamentReport], list[str], int]:
    """Play every pairing; returns (reports, transcript JSON lines, exit code)."""
    pairings = [(b, k) for b in run.builders for k in run.blockers]
    payloads = [run.game_payload(run.game_seed(pi, gi), bname, kname, keep_transcripts)
                for pi, (bname, kname) in enumerate(pairings) for gi in range(run.games)]
    if run.jobs > 1:
        with ProcessPoolExecutor(max_workers=run.jobs) as pool:
            results = list(pool.map(_play_one, payloads, chunksize=4))
    else:
        results = [_play_one(p) for p in payloads]
    transcripts: list[str] = []
    reports: list[TournamentReport] = []
    for pi, (bname, kname) in enumerate(pairings):
        chunk = results[pi * run.games:(pi + 1) * run.games]
        for r in chunk:
            if "violation_stop" in r:
                _report_stop(r)
                return reports, transcripts, 1
            if keep_transcripts:
                transcripts.append(r["transcript"])
        reports.append(_aggregate(f"{bname} vs {kname}", chunk))
    return reports, transcripts, 0


def _write_csv(reports: list[TournamentReport], out_path: str | None):
    out = open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rep in reports:
            writer.writerow(rep.csv_row())


def _dump_json(payload, out_path: str):
    Path(out_path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- subcommands --------------------------------------------------------------------


def cmd_play(args) -> int:
    run = _load_run_config(args)
    _apply_capacity(run.capacity)
    if len(run.builders) != 1 or len(run.blockers) != 1:
        raise UsageError("play takes exactly one builder and one blocker")
    result = _play_one(run.game_payload(run.seed, run.builders[0], run.blockers[0], True))
    if "violation_stop" in result:
        _report_stop(result)
        return 1
    if args.out:
        Path(args.out).write_text(result["transcript"])
    print(f"{run.variant.value} n={run.n} b={run.bias} {run.rules.value}: "
          f"{result['winner']} wins by {result['reason']} "
          f"after {result['rounds']} rounds")
    for msg in result["messages"]:
        print(f"violation: {msg}")
    return 0


def cmd_tournament(args) -> int:
    run = _load_run_config(args)
    _apply_capacity(run.capacity)
    keep = args.transcript_dir is not None
    reports, transcripts, code = run_tournament(run, keep_transcripts=keep)
    if code != 0:
        return code
    if keep:
        outdir = Path(args.transcript_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(transcripts):
            (outdir / f"game-{i:05d}.json").write_text(text)
    _write_csv(reports, args.csv)
    if args.json:
        _dump_json([asdict(rep) for rep in reports], args.json)
    return 0


THRESHOLD_GRID = (
    (Variant.MAKER_BREAKER, Rules.FREE, (3, 4, 5, 6)),
    (Variant.MAKER_BREAKER, Rules.CONNECTED, (3, 4, 5, 6)),
    (Variant.CLIENT_WAITER, Rules.CONNECTED, (3, 4, 5)),
)


def threshold_table() -> dict:
    table: dict = {}
    for variant, rules, sizes in THRESHOLD_GRID:
        per = table.setdefault(variant.value, {}).setdefault(rules.value, {})
        for n in sizes:
            per[str(n)] = exact_threshold(n, variant, rules)
    return table


def fixture_text() -> str:
    return json.dumps(threshold_table(), sort_keys=True, indent=2) + "\n"


def cmd_solve(args) -> int:
    _apply_capacity(args.capacity)
    if args.fixture:
        text = fixture_text()
        path = Path(args.fixture)
        if args.update:
            path.write_text(text)
            print(f"wrote {path}")
            return 0
        if not path.exists():
            print(f"fixture missing: {path}", file=sys.stderr)
            return 1
        if path.read_text() != text:
            print("fixture mismatch: recompute with --update to inspect",
                  file=sys.stderr)
            return 1
        print(f"fixture matches: {path}")
        return 0
    if args.n is None:
        raise UsageError("--n is required")
    variant = Variant(args.variant)
    rules = Rules(args.rules)
    if args.threshold:
        bstar = exact_threshold(args.n, variant, rules)
        print(f"threshold n={args.n} {variant.value} {rules.value}: b*={bstar}")
        return 0
    if args.b is None:
        raise UsageError("--b is required without --threshold")
    res = solve_game(GameConfig(n=args.n, b=args.b, variant=variant, rules=rules))
    print(f"solve n={args.n} b={args.b} {variant.value} {rules.value}: "
          f"{res.winner.value} wins (nodes={res.nodes})")
    return 0


def cmd_verify(args) -> int:
    _apply_capacity(args.capacity)
    config = GameConfig(n=args.n, b=args.b, variant=Variant(args.variant),
                        rules=Rules(args.rules))
    side = Role(args.side)
    options = {"lookahead": args.lookahead} if args.lookahead else {}

    def factory():
        return make_strategy(args.strategy, config, role=side, **options)

    result = verify_strategy(config, factory, side)
    label = (f"{args.strategy} as {side.value} on n={config.n} b={config.b} "
             f"{config.variant.value} {config.rules.value}")
    if result.verified:
        print(f"verified: {label} wins against all (nodes={result.nodes})")
        return 0
    print(f"refuted: {label} (nodes={result.nodes})")
    ce = result.counterexample
    if ce is not None:
        print(f"counterexample: {ce.winner.value} wins by {ce.reason.value} "
              f"after {ce.rounds} rounds")
        if args.out:
            Path(args.out).write_text(ce.to_json())
    for msg in result.violations[:10]:
        print(f"violation: {msg}")
    return 1


def cmd_optimize(args) -> int:
    if args.continuous:
        lines = {}
        for case in CASE_NAMES:
            lines[case] = float(continuous_case_value(case))
            print(f"{case} {lines[case]:.12f}")
        overall = float(overall_constant())
        print(f"overall {overall:.12f}")
        if args.json:
            _dump_json({"cases": lines, "overall": overall}, args.json)
        return 0
    if args.n is None or args.b is None:
        raise UsageError("--n and --b are required without --continuous")
    res = minimize_f(args.n, args.b)
    print(f"minimize n={args.n} b={args.b}: value={res.value} "
          f"({float(res.value):.6f})")
    payload = {"n": args.n, "b": args.b,
               "value": [res.value.numerator, res.value.denominator],
               "argmins": []}
    for opt in res.argmins:
        print(f"  shape a_sizes={opt.shape.a_sizes} edges={opt.edges} "
              f"r2_options={opt.r2_options}")
        payload["argmins"].append({"a_sizes": list(opt.shape.a_sizes),
                                   "edges": opt.edges,
                                   "r2_options": list(opt.r2_options)})
    if args.json:
        _dump_json(payload, args.json)
    return 0


def cmd_audit(args) -> int:
    eps = Fraction(args.eps)
    report = breaker_constant_audit(eps, n=args.n)
    width = max(len(r.name) for r in report.rows)
    for row in report.rows:
        flags = f"  [{','.join(row.flags)}]" if row.flags else ""
        status = "holds" if row.holds else "FAILS"
        print(f"{row.name:<{width}}  {row.lhs:<22.12g} {row.relation:>8} "
              f"{row.rhs:<22.12g} {status}{flags}")
    print(f"all-hold: {report.all_hold}  flagged: {len(report.flagged)}")
    if args.json:
        _dump_json([{
            "name": r.name, "lhs": r.lhs, "rhs": r.rhs,
            "relation": r.relation, "holds": r.holds, "flags": list(r.flags),
        } for r in report.rows], args.json)
    return 0


def cmd_replay(args) -> int:
    try:
        text = Path(args.path).read_text()
        transcript = Transcript.from_json(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError, ValueError,
            CorruptionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    recorder = MetricsRecorder()
    try:
        replay(transcript, hooks=[recorder])
    except CorruptionError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    cfg = transcript.config
    print(f"{cfg.variant.value} n={cfg.n} b={cfg.b} {cfg.rules.value} "
          f"seed={cfg.seed}")
    for snap in recorder.snapshots:
        print(f"round {snap.s:>3}: |R|={snap.r_size:>3} "
              f"blocked-cross={snap.e1r}/{snap.e2r} "
              f"saved={snap.saved_unclaimed} threats={snap.threats}")
    print(f"result: {transcript.winner.value} wins by {transcript.reason.value} "
          f"after {transcript.rounds} rounds (digest ok)")
    return 0


# -- parser -----------------------------------------------------------------------


def _add_run_arguments(sub, tournament: bool):
    sub.add_argument("--config", help="JSON file with RunConfig defaults")
    sub.add_argument("--n", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--bias-frac", dest="bias_frac",
                     help="bias as a fraction of n, e.g. 0.47")
    sub.add_argument("--round", choices=["ceil", "floor", "nearest"],
                     help="rounding for --bias-frac (default ceil)")
    sub.add_argument("--variant", choices=[v.value for v in Variant])
    sub.add_argument("--rules", choices=[r.value for r in Rules])
    sub.add_argument("--builders" if tournament else "--builder",
                     dest="builders", help="comma-separated strategy names")
    sub.add_argument("--blockers" if tournament else "--blocker",
                     dest="blockers", help="comma-separated strategy names")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--assert-mode", dest="assert_mode", action="store_const",
                     const=True, help="raise on the first invariant breach")
    sub.add_argument("--hooks", help="comma-separated hook names "
                     "(degree-regularity, breaker-loss=N, maker-loss, "
                     "client-critical, client-tree)")
    sub.add_argument("--capacity", help=f"override {ENV_OVERRIDE}, "
                     "e.g. mb_max_n=7")
    if tournament:
        sub.add_argument("--games", type=int)
        sub.add_argument("--jobs", type=int)
        sub.add_argument("--csv", help="write the report CSV here")
        sub.add_argument("--json", help="write the full report JSON here")
        sub.add_argument("--transcript-dir", dest="transcript_dir",
                         help="write one transcript JSON per game")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcycle",
        description="Biased odd-cycle games on complete graphs: engines, "
                    "exact solvers, and threshold optimization.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("play", help="run a single game")
    _add_run_arguments(p, tournament=False)
    p.add_argument("--out", help="write the transcript JSON here")
    p.set_defaults(func=cmd_play)

    p = subs.add_parser("tournament", help="run a pairing grid of games")
    _add_run_arguments(p, tournament=True)
    p.set_defaults(func=cmd_tournament)

    p = subs.add_parser("solve", help="exact small-board values and thresholds")
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default=Variant.MAKER_BREAKER.value)
    p.add_argument("--rules", choices=[r.value for r in Rules],
                   default=Rules.FREE.value)
    p.add_argument("--threshold", action="store_true",
                   help="report the least blocking bias instead of one value")
    p.add_argument("--fixture", help="compare the standard threshold grid "
                   "against this JSON file")
    p.add_argument("--update", action="store_true",
                   help="rewrite the fixture instead of comparing")
    p.add_argument("--capacity")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="exhaustively verify one strategy")
    p.add_argument("--strategy", required=True)
    p.add_argument("--side", choices=[Role.BUILDER.value, Role.BLOCKER.value],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default=Variant.MAKER_BREAKER.value)
    p.add_argument("--rules", choices=[r.value for r in Rules],
                   default=Rules.FREE.value)
    p.add_argument("--lookahead", help="client-connected lookahead mode")
    p.add_argument("--out", help="write a refuting transcript here")
    p.add_argument("--capacity")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("optimize", help="edge-count minimization and constants")
    p.add_argument("--continuous", action="store_true",
                   help="print the continuous case table")
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--json", help="write results JSON here")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("audit", help="numeric audit of the blocker constant")
    p.add_argument("--eps", required=True, help="fraction, e.g. 0.06 or 3/50")
    p.add_argument("--n", type=int)
    p.add_argument("--json", help="write rows JSON here")
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("replay", help="validate and pretty-print a transcript")
    p.add_argument("path")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --capacity holds for this command only
    saved_capacity = os.environ.get(ENV_OVERRIDE)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved_capacity is None:
            os.environ.pop(ENV_OVERRIDE, None)
        else:
            os.environ[ENV_OVERRIDE] = saved_capacity


if __name__ == "__main__":
    sys.exit(main())
