"""The game loop, its turn rules, transcripts and invariant hooks.

run_game drives a GameState move by move, asking strategy objects for
actions and recording everything into a Transcript that can be serialized to
canonical JSON and replayed bit-for-bit later.  The turn rules are written
once, in round_start_result and decide, which the exhaustive verifier in
solver.py walks as well.

Maker-Breaker: the builder claims one edge per round, then the blocker claims
min(b, remaining) edges one at a time.  Client-Waiter (monotone): the blocker
offers between 1 and b+1 unclaimed edges, the builder keeps exactly one and
the rest go to the blocker.  Which claims and offers are legal, the
connected rules included, is the board's to say: GameState.check_claim and
GameState.check_offer in board.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .board import (
    GameConfig,
    GameState,
    Reason,
    Role,
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
    """Observer attached to run_game.

    after_claim(state, move) runs after each claim or choice is applied, and
    not for the offer-mates a Waiter receives.  after_round(state, s) runs
    after each round with a claim in it: every finished round, a round ended
    by a winning claim and one ended by a Breaker's forfeit, but not one
    ended by a forfeit of the Maker, the Waiter or the Client.
    on_result(state, transcript) runs once at the end.  The verifier also
    shows a forfeit of the strategy it checks to after_claim.

    reads_board says whether after_claim reads its state argument.  A played
    game always passes its own board; the verifier builds a fresh board after
    the checked strategy's claim only for hooks that read it, and passes the
    others None.

    In observe mode violations are collected in .violations; in assert mode
    the first violation raises InvariantViolation.
    """

    reads_board = True

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
    """Check one waiter offer against GameState.check_offer, returning it as
    a tuple. Raises RuleViolation."""
    offer = tuple(edges)
    state.check_offer(offer)
    return offer


# -- turn rules ----------------------------------------------------------------


class Seat(NamedTuple):
    """One side's part in one variant: its role, its name in messages, the
    strategy method it is asked through and the action it must answer with."""

    role: Role
    name: str
    method: str
    kind: type
    wants: str


# the seat of each role in each variant; look one up once per game or walk,
# since hashing an Enum runs in Python
SEATS = {
    Variant.MAKER_BREAKER: {
        Role.BUILDER: Seat(Role.BUILDER, "builder", "claim_edge", ClaimEdge, "a claim"),
        Role.BLOCKER: Seat(Role.BLOCKER, "blocker", "claim_edge", ClaimEdge, "a claim"),
    },
    Variant.CLIENT_WAITER: {
        Role.BUILDER: Seat(Role.BUILDER, "client", "choose_from", Choose, "a choice"),
        Role.BLOCKER: Seat(Role.BLOCKER, "waiter", "make_offer", Offer, "an offer"),
    },
}

_FORFEIT_RESULT = {
    Role.BUILDER: (Status.BLOCKER_WIN, Reason.BUILDER_FORFEIT),
    Role.BLOCKER: (Status.BUILDER_WIN, Reason.BLOCKER_FORFEIT),
}


def round_start_result(state: GameState):
    """The (status, reason) the game ends with before the next round starts,
    or None when the round is played: an exhausted board first, then no legal
    Maker move or no offerable edge."""
    if state.unclaimed_count == 0:
        return Status.BLOCKER_WIN, Reason.BOARD_EXHAUSTED
    if state.has_legal_builder_move():
        return None
    if state.config.variant is Variant.MAKER_BREAKER:
        return Status.BLOCKER_WIN, Reason.NO_LEGAL_BUILDER_MOVE
    return Status.BUILDER_WIN, Reason.NO_OFFERABLE_EDGES


def decide(seat: Seat, ask, state: GameState, arg=None):
    """Ask a strategy for its move in seat and hold the answer to the turn rules.

    ask is the strategy's method for the seat, getattr(player, seat.method),
    looked up once per game or walk rather than once per decision.  arg is
    the claims left in a Breaker turn or the offer a Client chooses from, and
    None for the Maker and the Waiter.  A strategy answers with an action or
    an (action, branch) pair.  Returns (action, branch), an offer validated
    and as a tuple.  A Forfeit passes; any other action of the wrong type, an
    invalid offer or a choice outside the offer raises RuleViolation.  A
    claim is checked when it is applied.
    """
    raw = ask(state) if arg is None else ask(state, arg)
    action, branch = raw if isinstance(raw, tuple) else (raw, None)
    kind = seat.kind
    if not isinstance(action, kind):
        if isinstance(action, Forfeit):
            return action, branch
        raise RuleViolation(f"{seat.name} returned {action!r}, expected {seat.wants}")
    if kind is Offer:
        action = Offer(validate_offer(state, action.edges))
    elif kind is Choose and action.edge not in arg:
        raise RuleViolation(f"client chose edge {action.edge} outside the offer")
    return action, branch


# -- the game loop ---------------------------------------------------------------


def _start(strategy, state):
    start = getattr(strategy, "start", None)
    if start is not None:
        start(state)


def _play(seat, ask, state, arg, s, moves, hooks):
    """One decision, recorded: a claim or a choice is applied and shown to
    the hooks, and a forfeit ends the game.  Returns the action, or None on
    a forfeit."""
    action, branch = decide(seat, ask, state, arg)
    k = state.turn_k = len(moves)
    move = Move(s, k, seat.role, action, branch)
    moves.append(move)
    if isinstance(action, Forfeit):
        state.set_result(*_FORFEIT_RESULT[seat.role])
        return None
    if seat.kind is not Offer:
        state.apply_claim(seat.role, action.edge)
        for h in hooks:
            h.after_claim(state, move)
    return action


def run_game(config: GameConfig, builder, blocker, hooks=()) -> Transcript:
    """Play one game to the end and return its transcript.

    builder is the Maker or the Client, blocker the Breaker or the Waiter.
    The offer-mates of a choice that ends the game stay unclaimed.
    """
    seats = SEATS[config.variant]
    maker_breaker = config.variant is Variant.MAKER_BREAKER
    bseat, kseat = seats[Role.BUILDER], seats[Role.BLOCKER]
    state = GameState(config)
    _start(builder, state)
    _start(blocker, state)
    bask, kask = getattr(builder, bseat.method), getattr(blocker, kseat.method)
    moves: list[Move] = []
    s = 0
    while state.status is Status.IN_PROGRESS:
        end = round_start_result(state)
        if end is not None:
            state.set_result(*end)
            break
        s += 1
        if maker_breaker:
            if _play(bseat, bask, state, None, s, moves, hooks) is None:
                break
            if state.status is Status.IN_PROGRESS:
                claims = min(config.b, state.unclaimed_count)
                for j in range(claims):
                    if _play(kseat, kask, state, claims - j, s, moves, hooks) is None:
                        break
        else:
            offer = _play(kseat, kask, state, None, s, moves, hooks)
            if offer is None:
                break
            pick = _play(bseat, bask, state, offer.edges, s, moves, hooks)
            if pick is None:
                break
            if state.status is Status.IN_PROGRESS:
                for e in offer.edges:
                    if e != pick.edge:
                        state.apply_claim(Role.BLOCKER, e)
        for h in hooks:
            h.after_round(state, s)
    winner = Role.BUILDER if state.status is Status.BUILDER_WIN else Role.BLOCKER
    t = Transcript(config=config, moves=moves, winner=winner,
                   reason=state.reason, digest=state.digest())
    for h in hooks:
        h.on_result(state, t)
    return t


# -- replay --------------------------------------------------------------------


class _ScriptedPlayer:
    """Feeds recorded actions back into run_game, for transcript validation."""

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
        redone = run_game(cfg, builder, blocker, hooks)
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
