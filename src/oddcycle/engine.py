"""Game runners, transcripts and invariant hooks.

Both runners drive a GameState move by move, asking strategy objects for
actions and recording everything into a Transcript that can be serialized to
canonical JSON and replayed bit-for-bit later.

Maker-Breaker: the builder claims one edge per round, then the blocker claims
min(b, remaining) edges one at a time.  Client-Waiter (monotone): the blocker
offers between 1 and b+1 unclaimed edges, the builder keeps exactly one and
the rest go to the blocker.  Under connected rules the builder's graph must
stay connected; for offers this means every offered edge touches the
builder's graph, except in round one where the whole offer must share a
single vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .board import (
    GameConfig,
    GameState,
    Reason,
    Role,
    Rules,
    Status,
    Variant,
)
from .errors import CorruptionError, InvariantViolation, RuleViolation, StateError

# -- actions ---------------------------------------------------------------


@dataclass(frozen=True)
class ClaimEdge:
    edge: int

    def to_json_dict(self):
        return {"type": "claim", "edge": self.edge}


@dataclass(frozen=True)
class Offer:
    edges: tuple[int, ...]

    def to_json_dict(self):
        return {"type": "offer", "edges": list(self.edges)}


@dataclass(frozen=True)
class Choose:
    edge: int

    def to_json_dict(self):
        return {"type": "choose", "edge": self.edge}


@dataclass(frozen=True)
class Forfeit:
    def to_json_dict(self):
        return {"type": "forfeit"}


def parse_action(d: dict):
    t = d.get("type")
    if t == "claim":
        return ClaimEdge(d["edge"])
    if t == "offer":
        return Offer(tuple(d["edges"]))
    if t == "choose":
        return Choose(d["edge"])
    if t == "forfeit":
        return Forfeit()
    raise CorruptionError(f"unknown action type: {t!r}")


@dataclass(frozen=True)
class Move:
    s: int
    k: int
    role: Role
    action: object
    branch: str | None = None

    def to_json_dict(self):
        return {
            "s": self.s,
            "k": self.k,
            "role": self.role.value,
            "action": self.action.to_json_dict(),
            "branch": self.branch,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Move":
        return cls(s=d["s"], k=d["k"], role=Role(d["role"]),
                   action=parse_action(d["action"]), branch=d.get("branch"))


@dataclass
class Transcript:
    config: GameConfig
    moves: list[Move]
    winner: Role
    reason: Reason
    digest: str
    version: str = "1"

    def to_json_dict(self):
        return {
            "version": self.version,
            "config": self.config.to_json_dict(),
            "moves": [m.to_json_dict() for m in self.moves],
            "result": {"winner": self.winner.value, "reason": self.reason.value},
            "digest": self.digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Transcript":
        if not isinstance(d, dict):
            raise CorruptionError(f"a transcript is a JSON object, not {type(d).__name__}")
        if d.get("version") != "1":
            raise CorruptionError(f"unsupported transcript version: {d.get('version')!r}")
        res = d["result"]
        return cls(
            config=GameConfig.from_json_dict(d["config"]),
            moves=[Move.from_json_dict(m) for m in d["moves"]],
            winner=Role(res["winner"]),
            reason=Reason(res["reason"]),
            digest=d["digest"],
        )

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        return cls.from_json_dict(json.loads(text))

    @property
    def rounds(self) -> int:
        return self.moves[-1].s if self.moves else 0


# -- hooks -------------------------------------------------------------------


class GameHook:
    """Observer attached to a runner.

    In observe mode violations are collected in .violations; in assert mode
    the first violation raises InvariantViolation.
    """

    def __init__(self, assert_mode: bool = False):
        self.assert_mode = assert_mode
        self.violations: list[str] = []

    def violation(self, msg: str):
        if self.assert_mode:
            raise InvariantViolation(msg)
        self.violations.append(msg)

    def after_claim(self, state: GameState, move: Move):
        pass

    def after_round(self, state: GameState, s: int):
        pass

    def on_result(self, state: GameState, transcript: Transcript):
        pass


@dataclass
class MetricsSnapshot:
    """Counters sampled at the end of one round."""

    s: int
    k: int
    r_size: int
    e1r: int
    e2r: int
    e_vv: int
    deg_min1: int
    deg_min2: int
    deg_max1: int
    deg_max2: int
    d1: Fraction
    d2: Fraction
    saved_unclaimed: int
    saved_not_blocker: int
    threats: int


class MetricsRecorder(GameHook):
    """Collect a MetricsSnapshot after every round."""

    def __init__(self):
        super().__init__()
        self.snapshots: list[MetricsSnapshot] = []

    def after_round(self, state: GameState, s: int):
        r = len(state.r_set)
        self.snapshots.append(MetricsSnapshot(
            s=s,
            k=state.turn_k,
            r_size=r,
            e1r=state.e_blk_vr[0],
            e2r=state.e_blk_vr[1],
            e_vv=state.e_blk_vv,
            deg_min1=state.deg_min[0],
            deg_min2=state.deg_min[1],
            deg_max1=state.deg_max[0],
            deg_max2=state.deg_max[1],
            d1=Fraction(state.e_blk_vr[0], r) if r else Fraction(0),
            d2=Fraction(state.e_blk_vr[1], r) if r else Fraction(0),
            saved_unclaimed=state.saved_unclaimed(),
            saved_not_blocker=state.saved_not_blocker,
            threats=len(state.threat_edges),
        ))


# -- offer validation ---------------------------------------------------------


def offerable_edges(state: GameState) -> set[int]:
    """Edges the waiter is allowed to include in an offer right now."""
    return state.legal_builder_moves()


def validate_offer(state: GameState, edges) -> tuple[int, ...]:
    """Check one waiter offer, returning it as a tuple. Raises RuleViolation."""
    offer = tuple(edges)
    if not (1 <= len(offer) <= state.config.b + 1):
        raise RuleViolation(
            f"offer size {len(offer)} outside 1..{state.config.b + 1}")
    if len(set(offer)) != len(offer):
        raise RuleViolation("offer contains a repeated edge")
    for e in offer:
        state.check_claim(Role.BUILDER, e)
    if state.config.rules is Rules.CONNECTED and state.builder_edge_count == 0:
        # first offer: all edges around one vertex
        common = set(state.endpoints(offer[0]))
        for e in offer[1:]:
            common &= set(state.endpoints(e))
        if not common:
            raise RuleViolation("first offer must share a single vertex")
    return offer


# -- runners -------------------------------------------------------------------


def _decision(raw):
    """Strategies may return an Action or an (Action, branch) pair."""
    if isinstance(raw, tuple):
        return raw
    return raw, None


def _start(strategy, state):
    start = getattr(strategy, "start", None)
    if start is not None:
        start(state)


def _finish(state, moves, hooks) -> Transcript:
    if state.status is Status.BUILDER_WIN:
        winner = Role.BUILDER
    else:
        winner = Role.BLOCKER
    t = Transcript(config=state.config, moves=moves, winner=winner,
                   reason=state.reason, digest=state.digest())
    for h in hooks:
        h.on_result(state, t)
    return t


def run_maker_breaker(config: GameConfig, builder, blocker, hooks=()) -> Transcript:
    """Play one Maker-Breaker game to the end and return its transcript."""
    if config.variant is not Variant.MAKER_BREAKER:
        raise StateError("config is not a Maker-Breaker game")
    state = GameState(config)
    _start(builder, state)
    _start(blocker, state)
    moves: list[Move] = []
    k = 0
    s = 0
    while state.status is Status.IN_PROGRESS:
        if state.unclaimed_count == 0:
            state.set_result(Status.BLOCKER_WIN, Reason.BOARD_EXHAUSTED)
            break
        if not state.has_legal_builder_move():
            state.set_result(Status.BLOCKER_WIN, Reason.NO_LEGAL_BUILDER_MOVE)
            break
        s += 1
        state.round_s = s
        action, branch = _decision(builder.claim_edge(state))
        state.turn_k = k
        move = Move(s, k, Role.BUILDER, action, branch)
        k += 1
        moves.append(move)
        if isinstance(action, Forfeit):
            state.set_result(Status.BLOCKER_WIN, Reason.BUILDER_FORFEIT)
            break
        if not isinstance(action, ClaimEdge):
            raise RuleViolation(f"builder returned {action!r}, expected a claim")
        state.apply_claim(Role.BUILDER, action.edge)
        for h in hooks:
            h.after_claim(state, move)
        if state.status is not Status.IN_PROGRESS:
            for h in hooks:
                h.after_round(state, s)
            break
        claims = min(config.b, state.unclaimed_count)
        stop = False
        for j in range(claims):
            action, branch = _decision(blocker.claim_edge(state, claims - j))
            state.turn_k = k
            move = Move(s, k, Role.BLOCKER, action, branch)
            k += 1
            moves.append(move)
            if isinstance(action, Forfeit):
                state.set_result(Status.BUILDER_WIN, Reason.BLOCKER_FORFEIT)
                stop = True
                break
            if not isinstance(action, ClaimEdge):
                raise RuleViolation(f"blocker returned {action!r}, expected a claim")
            state.apply_claim(Role.BLOCKER, action.edge)
            for h in hooks:
                h.after_claim(state, move)
        for h in hooks:
            h.after_round(state, s)
        if stop:
            break
    return _finish(state, moves, hooks)


def run_client_waiter(config: GameConfig, waiter, client, hooks=()) -> Transcript:
    """Play one monotone Client-Waiter game to the end and return its transcript."""
    if config.variant is not Variant.CLIENT_WAITER:
        raise StateError("config is not a Client-Waiter game")
    state = GameState(config)
    _start(waiter, state)
    _start(client, state)
    moves: list[Move] = []
    k = 0
    s = 0
    while state.status is Status.IN_PROGRESS:
        if state.unclaimed_count == 0:
            state.set_result(Status.BLOCKER_WIN, Reason.BOARD_EXHAUSTED)
            break
        if not offerable_edges(state):
            state.set_result(Status.BUILDER_WIN, Reason.NO_OFFERABLE_EDGES)
            break
        s += 1
        state.round_s = s
        action, branch = _decision(waiter.make_offer(state))
        state.turn_k = k
        move = Move(s, k, Role.BLOCKER, action, branch)
        k += 1
        moves.append(move)
        if isinstance(action, Forfeit):
            state.set_result(Status.BUILDER_WIN, Reason.BLOCKER_FORFEIT)
            break
        if not isinstance(action, Offer):
            raise RuleViolation(f"waiter returned {action!r}, expected an offer")
        offer = validate_offer(state, action.edges)
        action, branch = _decision(client.choose_from(state, offer))
        state.turn_k = k
        move = Move(s, k, Role.BUILDER, action, branch)
        k += 1
        moves.append(move)
        if isinstance(action, Forfeit):
            state.set_result(Status.BLOCKER_WIN, Reason.BUILDER_FORFEIT)
            break
        if not isinstance(action, Choose):
            raise RuleViolation(f"client returned {action!r}, expected a choice")
        if action.edge not in offer:
            raise RuleViolation(f"client chose edge {action.edge} outside the offer")
        state.apply_claim(Role.BUILDER, action.edge)
        for h in hooks:
            h.after_claim(state, move)
        if state.status is not Status.IN_PROGRESS:
            # game over on the client's claim; leftover offered edges stay open
            for h in hooks:
                h.after_round(state, s)
            break
        for e in offer:
            if e != action.edge:
                state.apply_claim(Role.BLOCKER, e)
        for h in hooks:
            h.after_round(state, s)
    return _finish(state, moves, hooks)


def run_game(config: GameConfig, builder, blocker, hooks=()) -> Transcript:
    """Dispatch on the variant. builder/blocker are the odd-cycle/blocking sides."""
    if config.variant is Variant.MAKER_BREAKER:
        return run_maker_breaker(config, builder, blocker, hooks)
    return run_client_waiter(config, blocker, builder, hooks)


# -- replay --------------------------------------------------------------------


class _ScriptedPlayer:
    """Feeds recorded actions back into a runner, for transcript validation."""

    def __init__(self, moves: list[Move], role: Role):
        self.queue = [m for m in moves if m.role is role]
        self.pos = 0

    def _next(self):
        if self.pos >= len(self.queue):
            raise CorruptionError("transcript ended before the game did")
        m = self.queue[self.pos]
        self.pos += 1
        return m.action, m.branch

    def claim_edge(self, state, claims_left=None):
        return self._next()

    def make_offer(self, state):
        return self._next()

    def choose_from(self, state, offered):
        return self._next()


def replay(transcript: Transcript, hooks=()) -> Transcript:
    """Re-run a transcript through the engine and validate the recorded result.

    Raises CorruptionError when the moves do not reproduce the recorded
    digest, winner, reason or move sequence.
    """
    cfg = transcript.config
    builder = _ScriptedPlayer(transcript.moves, Role.BUILDER)
    blocker = _ScriptedPlayer(transcript.moves, Role.BLOCKER)
    try:
        if cfg.variant is Variant.MAKER_BREAKER:
            redone = run_maker_breaker(cfg, builder, blocker, hooks)
        else:
            redone = run_client_waiter(cfg, blocker, builder, hooks)
    except (RuleViolation, StateError) as exc:
        raise CorruptionError(f"transcript move rejected by the engine: {exc}") from exc
    if redone.digest != transcript.digest:
        raise CorruptionError(
            f"digest mismatch: recorded {transcript.digest}, replayed {redone.digest}")
    if redone.winner is not transcript.winner or redone.reason is not transcript.reason:
        raise CorruptionError(
            f"result mismatch: recorded {transcript.winner.value}/{transcript.reason.value}, "
            f"replayed {redone.winner.value}/{redone.reason.value}")
    if [m.to_json_dict() for m in redone.moves] != [m.to_json_dict() for m in transcript.moves]:
        raise CorruptionError("move sequence mismatch on replay")
    return redone
