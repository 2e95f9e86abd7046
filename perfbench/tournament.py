"""The tournament-jobs workload: the `oddcycle tournament` command with --jobs 2.

A round is one CLI invocation per pairing set, each a subprocess of
`python3 -m oddcycle.cli` (the console script's entry point) on this
checkout's sources, writing a CSV and one transcript per game.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

from harness import OUT, ROOT, SpeedProbe, child_env, peak_rss_mb
from referee import Rejected, referee, self_test

JOBS = 2


@dataclass(frozen=True)
class PairingSet:
    label: str
    variant: str
    rules: str
    n: int
    b: int
    builders: tuple[str, ...]
    blockers: tuple[str, ...]
    games: int
    hooks: tuple[str, ...]

    def pairings(self) -> list[tuple[str, str]]:
        return [(bl, bk) for bl in self.builders for bk in self.blockers]

    def argv(self, seed: int, outdir) -> list[str]:
        args = ["tournament", "--variant", self.variant, "--rules", self.rules,
                "--n", str(self.n), "--b", str(self.b),
                "--builders", ",".join(self.builders), "--blockers", ",".join(self.blockers),
                "--games", str(self.games), "--seed", str(seed), "--jobs", str(JOBS),
                "--transcript-dir", str(outdir / "games"), "--csv", str(outdir / "report.csv")]
        if self.hooks:
            args += ["--hooks", ",".join(self.hooks), "--assert-mode"]
        return args

    def run_config(self, seed: int, jobs: int):
        from oddcycle.cli import RunConfig

        return RunConfig(n=self.n, b=self.b, variant=self.variant, rules=self.rules,
                         builders=self.builders, blockers=self.blockers, games=self.games,
                         seed=seed, assert_mode=bool(self.hooks), hooks=self.hooks, jobs=jobs)


SETS = [
    # many short Client-Waiter games; the client-critical hook asserts every round
    PairingSet("cw-connected", "client-waiter", "connected", 40, 18, ("client-connected",),
               ("greedy-waiter", "random-waiter"), 150, ("client-critical",)),
]


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "oddcycle.cli", *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=170)


class TournamentWorkload:
    name = "tournament-jobs"
    # sampled only around each invocation: over 97 invocations the slope of
    # its time against the kernel's was 0.67 (correlation 0.73)
    speed_exponent = 0.7
    required_tampers = {"result", "digest", "offer", "sequence", "bipartite"}

    def __init__(self, seed: int):
        rng = random.Random(f"tournament-jobs:{seed}")
        self.seeds = [rng.randrange(1 << 30) for _ in SETS]
        self.base = OUT / "tournament"

    def setup(self):
        """Fresh output directory; one in-process game per pairing as warm-up."""
        from oddcycle import engine, strategies

        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        for ps, seed in zip(SETS, self.seeds):
            config = ps.run_config(seed, 1).game_config(seed)
            for bname, kname in ps.pairings():
                engine.run_game(config, strategies.make_strategy(bname, config),
                                strategies.make_strategy(kname, config))

    def run_round(self) -> dict:
        # the CLI's pool runs on both CPUs, so the kernel is sampled on each;
        # run while the pool works, it would measure contention, not speed
        ops, probe = [], SpeedProbe(during=False, all_cpus=True, repeats=4)
        for ps, seed in zip(SETS, self.seeds):
            outdir = self.base / ps.label
            shutil.rmtree(outdir, ignore_errors=True)
            proc, error, seconds, kernel_s = probe.time_op(lambda: _cli(ps.argv(seed, outdir)))
            if error is None and proc.returncode != 0:
                error = f"exit {proc.returncode}: {proc.stderr[-500:]}"
            ops.append({"name": f"tournament {ps.label}", "s": seconds, "kernel_s": kernel_s,
                        "error": error})
        return {"wall": sum(op["s"] for op in ops), "ops": ops, "speed": probe.samples,
                "digests": self._digests()}

    def _digests(self) -> list[str]:
        out = []
        for ps in SETS:
            for path in sorted((self.base / ps.label / "games").glob("game-*.json")):
                out.append(json.loads(path.read_text()).get("digest"))
        return out

    def peak_rss(self, rounds: list[dict]) -> float:
        # ru_maxrss of waited-for children is the largest single descendant
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def traced_round(self, baseline: dict) -> dict:
        """CLI-layer figures, then the same games in-process under the tracer.

        Spans cannot cross into the --jobs workers, so the strategies, engine,
        board and hooks are traced in run_tournament with jobs=1.
        """
        from oddcycle import cli, engine, strategies
        from spans import Tracer

        def in_process():
            t0 = time.perf_counter()
            results = [cli.run_tournament(ps.run_config(seed, 1), keep_transcripts=True)
                       for ps, seed in zip(SETS, self.seeds)]
            return time.perf_counter() - t0, results

        games_s, games = 0.0, 0
        for ps, seed in zip(SETS, self.seeds):
            run = ps.run_config(seed, 1)
            for pi, (bname, kname) in enumerate(ps.pairings()):
                for gi in range(ps.games):
                    config = run.game_config(run.game_seed(pi, gi))
                    builder = strategies.make_strategy(bname, config)
                    blocker = strategies.make_strategy(kname, config)
                    hooks = [strategies.ClientCriticalHook(assert_mode=True)
                             for h in ps.hooks if h == "client-critical"]
                    g0 = time.perf_counter()
                    engine.run_game(config, builder, blocker, hooks)
                    games_s += time.perf_counter() - g0
                    games += 1
        tournament_s, _ = in_process()
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, results = in_process()
        finally:
            tracer.uninstall()
        t0 = time.perf_counter()
        proc = _cli(["--help"])
        startup = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"oddcycle --help exited {proc.returncode}")
        layer = tracer.layer_values()
        layer.update({
            "cli.games": games,
            "cli.startup_s": startup,
            "cli.overhead_per_game_s": (tournament_s - games_s) / games,
            "cli.parallel_efficiency": games_s / (JOBS * baseline["wall"]),
            "trace.overhead_s": traced_s - tournament_s,
        })
        return {"wall": traced_s, "layer": layer, "tracer": tracer,
                "ops": [{"name": f"in-process tournament {ps.label}", "s": None,
                         "error": None if code == 0 else f"exit {code}"}
                        for ps, (_, _, code) in zip(SETS, results)],
                "digests": [json.loads(t)["digest"] for _, ts, _ in results for t in ts]}

    def check(self, rounds: list[dict], layer: dict | None) -> tuple[list[str], dict]:
        problems: list[str] = []
        accepted, claims = [], 0
        summary = []
        for r in rounds[1:]:
            if r["digests"] != rounds[0]["digests"]:
                problems.append("a later round (or the in-process run) played different games")
        # the files on disk are the last round's; every round played the same games
        for ps in SETS:
            outdir = self.base / ps.label
            paths = sorted((outdir / "games").glob("game-*.json"))
            pairings = ps.pairings()
            if len(paths) != ps.games * len(pairings):
                problems.append(f"{ps.label}: {len(paths)} transcripts for "
                                f"{ps.games * len(pairings)} games")
                continue
            wins = {p: 0 for p in pairings}
            for i, path in enumerate(paths):
                pairing = pairings[i // ps.games]
                doc = json.loads(path.read_text())
                try:
                    verdict = referee(doc, pairing[0])
                except Rejected as exc:
                    problems.append(f"{ps.label} {path.name}: referee rejected: {exc}")
                    continue
                claims += verdict["claims"]
                wins[pairing] += verdict["winner"] == "builder"
                if i % ps.games == 0:
                    accepted.append((doc, pairing[0]))
            with open(outdir / "report.csv", newline="") as fh:
                rows = {row["pairing"]: row for row in csv.DictReader(fh)}
            for (bname, kname), w in wins.items():
                row = rows.get(f"{bname} vs {kname}")
                if row is None or int(row["builder_wins"]) != w or \
                        int(row["blocker_wins"]) != ps.games - w or int(row["violations"]):
                    problems.append(f"{ps.label} {bname} vs {kname}: CSV {row} but the "
                                    f"referee counts {w} builder wins of {ps.games}")
                summary.append({"set": ps.label, "pairing": f"{bname} vs {kname}",
                                "builder_wins": w, "games": ps.games})
        try:
            fired = self_test(accepted)
            if not self.required_tampers <= fired:
                problems.append(f"referee self-test never tripped "
                                f"{sorted(self.required_tampers - fired)}")
        except AssertionError as exc:
            problems.append(f"referee self-test: {exc}")
        if layer is not None:
            if layer.get("board.apply_claim.calls") != claims:
                problems.append(f"traced apply_claim calls {layer.get('board.apply_claim.calls')}"
                                f" != {claims} claims in the transcripts")
        combined = hashlib.sha256("\n".join(rounds[0]["digests"]).encode()).hexdigest()
        return problems, {"pairings": summary, "claims_per_round": claims,
                          "combined_digest": combined}
