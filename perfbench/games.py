"""In-process game workloads: mb-connected and mb-free.

Every round plays the same fixed list of games, one operation each, through
oddcycle.engine.run_game with strategies from make_strategy and the invariant
hooks in assert mode.  Game seeds come from the benchmark seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from harness import SpeedProbe, peak_rss_mb, transcript_doc
from referee import Rejected, referee, self_test

from oddcycle import GameConfig, engine, strategies
from oddcycle.board import GameState

CRITERION5_BUDGET = 1099  # saved_budget(0.06, 200), the criterion-5 bound


@dataclass(frozen=True)
class Game:
    label: str
    n: int
    b: int
    rules: str
    builder: str
    blocker: str
    seed: int
    hooks: str  # "criterion-5", "maker-loss" or ""

    def config(self) -> GameConfig:
        return GameConfig(n=self.n, b=self.b, rules=self.rules, seed=self.seed)

    def build(self):
        config = self.config()
        builder = strategies.make_strategy(self.builder, config)
        blocker = strategies.make_strategy(self.blocker, config)
        if self.hooks == "criterion-5":
            hooks = [strategies.DegreeRegularityHook(assert_mode=True),
                     strategies.BreakerLossHook(CRITERION5_BUDGET, assert_mode=True)]
        elif self.hooks == "maker-loss":
            hooks = [strategies.MakerLossHook(builder, assert_mode=True)]
        else:
            hooks = []
        return config, builder, blocker, hooks


def games_for(workload: str, seed: int) -> list[Game]:
    rng = random.Random(f"{workload}:{seed}")

    def draw():
        return rng.randrange(1 << 30)

    if workload == "mb-connected":
        return [Game(f"{maker}/n200b94", 200, 94, "connected", maker, "breaker-connected",
                     draw(), "criterion-5")
                for maker in ("random-maker", "greedy-maker", "maker-oc")]
    sweep = [Game(f"maker-oc-greedy/n100b{b}", 100, b, "free", "maker-oc", "greedy-breaker",
                  draw(), "maker-loss")
             for b in (31, 36, 41, 46, 51)]
    # A merge game's length varies eightfold with its game seed (56-215 rounds),
    # and eight games drawn from the benchmark seed spread wall_s by 12% between
    # runs, so these games' seeds are fixed.
    fixed = random.Random("mb-free:merges")
    merges = [Game(f"random-random/n300b{b}", 300, b, "free", "random-maker",
                   "random-breaker", fixed.randrange(1 << 30), "")
              for b in (1, 2, 1, 2, 1, 2, 1, 2)]
    return sweep + merges


class GameWorkload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.games = games_for(name, seed)
        # the slope of game time against kernel time; see harness.REFERENCE_KERNEL_S
        self.speed_exponent = 0.8 if name == "mb-connected" else 0.95
        # the checks each workload's transcripts must be able to trip
        self.required_tampers = ({"result", "digest", "unclaimed", "turn", "connected", "tree"}
                                 if name == "mb-connected" else
                                 {"result", "digest", "unclaimed", "turn", "bipartite",
                                  "sequence"})

    def setup(self):
        """Warm-up: build the edge tables and play one small game per pairing."""
        for n in sorted({g.n for g in self.games}):
            GameState(GameConfig(n=n, b=1))
        for g in {(g.rules, g.builder, g.blocker, g.hooks): g for g in self.games}.values():
            small = Game(g.label, 40, max(1, g.b * 40 // g.n), g.rules, g.builder,
                         g.blocker, g.seed, "")
            engine.run_game(*small.build())

    def run_round(self, during: bool = True) -> dict:
        ops, transcripts, probe = [], [], SpeedProbe(during)
        for g in self.games:
            transcript, error, seconds, kernel_s = probe.time_op(
                lambda: engine.run_game(*g.build()))
            ops.append({"name": g.label, "s": seconds, "kernel_s": kernel_s, "error": error})
            transcripts.append(transcript)
        return {"wall": sum(op["s"] for op in ops), "ops": ops, "speed": probe.samples,
                "transcripts": transcripts,
                "digests": [t.digest if t is not None else None for t in transcripts]}

    def traced_round(self, baseline: dict) -> dict:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result = self.run_round(during=False)  # no interruptions inside the spans
        finally:
            tracer.uninstall()
        result.update(layer=tracer.layer_values(), tracer=tracer)
        return result

    def peak_rss(self, rounds: list[dict]) -> float:
        return peak_rss_mb()

    def check(self, rounds: list[dict], layer: dict | None) -> tuple[list[str], dict]:
        problems: list[str] = []
        first = rounds[0]
        accepted, claims, summary = [], 0, []
        for g, op, t in zip(self.games, first["ops"], first["transcripts"]):
            if t is None:
                continue
            doc = transcript_doc(t)
            try:
                verdict = referee(doc, g.builder)
            except Rejected as exc:
                problems.append(f"{g.label}: referee rejected the transcript: {exc}")
                continue
            accepted.append((doc, g.builder))
            claims += verdict["claims"]
            summary.append({"game": g.label, "seed": g.seed, "winner": verdict["winner"],
                            "reason": verdict["reason"], "rounds": t.rounds,
                            "digest": verdict["digest"]})
        digests = first["digests"]
        for r in rounds[1:]:
            if r["digests"] != digests:
                problems.append("a later round played different games than the first")
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
            merges = layer.get("board.apply_claim.merge.calls", 0)
            if (merges == 0) != (self.name == "mb-connected"):
                problems.append(f"{merges} relabelling merges on {self.name}")
        combined = hashlib.sha256("\n".join(d or "" for d in digests).encode()).hexdigest()
        return problems, {"games": summary, "claims_per_round": claims,
                          "combined_digest": combined}
