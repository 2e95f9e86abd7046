"""Independent referee for oddcycle transcripts.

The referee re-plays a transcript's JSON on a plain ownership array.  It uses
nothing from oddcycle: no GameState, no ParityForest, no replay.  Edge ids
follow the documented lexicographic order of endpoint pairs, and odd cycles
are found by BFS 2-colouring of the builder's graph.

Each rejection names the check that failed, so the self-test below can show
that every check is able to fail.
"""

from __future__ import annotations

import copy
import hashlib

UNCLAIMED, BUILDER, BLOCKER = 0, 1, 2


class Rejected(Exception):
    """A transcript broke a rule; .check names the rule."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _bipartite(n: int, edges) -> bool:
    """Can the graph be 2-coloured? (BFS colouring; False means an odd cycle.)"""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if colour[y] < 0:
                    colour[y] = colour[x] ^ 1
                    queue.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def _is_tree(n: int, edges) -> bool:
    verts = {x for e in edges for x in e}
    if len(edges) != len(verts) - 1:
        return False
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(verts))
    seen = {start}
    queue = [start]
    for x in queue:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == verts


class _Play:
    """Ownership array plus the builder's graph, advanced move by move."""

    def __init__(self, doc: dict):
        cfg = doc.get("config")
        if not isinstance(cfg, dict):
            raise Rejected("format", "missing config")
        n, b = cfg.get("n"), cfg.get("b")
        if not (isinstance(n, int) and isinstance(b, int) and n >= 3 and b >= 0):
            raise Rejected("format", f"bad n/b: {n!r}/{b!r}")
        if cfg.get("variant") not in ("maker-breaker", "client-waiter"):
            raise Rejected("format", f"bad variant {cfg.get('variant')!r}")
        if cfg.get("rules") not in ("free", "connected"):
            raise Rejected("format", f"bad rules {cfg.get('rules')!r}")
        self.n, self.b = n, b
        self.variant = cfg["variant"]
        self.connected = cfg["rules"] == "connected"
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.own = bytearray(len(self.pairs))
        self.unclaimed = len(self.pairs)
        self.bverts: set[int] = set()
        self.bedges: list[tuple[int, int]] = []
        self.claims = 0
        self.moves = doc.get("moves")
        if not isinstance(self.moves, list):
            raise Rejected("format", "moves is not a list")
        self.pos = 0

    def next_move(self, role: str, s: int) -> dict:
        if self.pos >= len(self.moves):
            raise Rejected("sequence", f"transcript ends before the game does (round {s})")
        m = self.moves[self.pos]
        if m.get("k") != self.pos or m.get("s") != s or m.get("role") != role:
            raise Rejected("sequence", f"move {self.pos} is {m.get('role')}"
                           f"@s={m.get('s')},k={m.get('k')}; expected {role}@s={s}")
        self.pos += 1
        action = m.get("action")
        if not isinstance(action, dict):
            raise Rejected("format", f"move {self.pos - 1} has no action")
        return action

    def edge(self, e) -> tuple[int, int]:
        if not (isinstance(e, int) and 0 <= e < len(self.pairs)):
            raise Rejected("format", f"edge id {e!r} out of range")
        return self.pairs[e]

    def touches_builder(self, e: int) -> bool:
        u, v = self.pairs[e]
        return u in self.bverts or v in self.bverts

    def claim(self, e, owner: int):
        self.edge(e)
        if self.own[e] != UNCLAIMED:
            raise Rejected("unclaimed", f"edge {e} claimed twice")
        self.own[e] = owner
        self.unclaimed -= 1
        self.claims += 1

    def builder_claim(self, e):
        u, v = self.edge(e)
        if self.connected and self.bedges and not self.touches_builder(e):
            raise Rejected("connected", f"builder edge {e} misses the builder's vertex set")
        self.claim(e, BUILDER)
        self.bedges.append((u, v))
        self.bverts.update((u, v))

    def offerable(self) -> bool:
        if self.connected and self.bedges:
            return any(self.own[e] == UNCLAIMED and self.touches_builder(e)
                       for e in range(len(self.pairs)))
        return self.unclaimed > 0

    def check_offer(self, edges):
        if not isinstance(edges, list) or not 1 <= len(edges) <= self.b + 1:
            raise Rejected("offer", f"offer {edges!r} has a size outside 1..{self.b + 1}")
        if len(set(edges)) != len(edges):
            raise Rejected("offer", "offer repeats an edge")
        for e in edges:
            self.edge(e)
            if self.own[e] != UNCLAIMED:
                raise Rejected("offer", f"offered edge {e} is claimed")
        if not self.connected:
            return
        if self.bedges:
            if not all(self.touches_builder(e) for e in edges):
                raise Rejected("offer", "offered edge misses the builder's vertex set")
        elif not set.intersection(*(set(self.pairs[e]) for e in edges)):
            raise Rejected("offer", "first offer shares no vertex")


def _end_of_claims(p: _Play, s: int, winner: str, reason: str):
    """A forfeit ends the game: nothing may follow it."""
    if p.pos != len(p.moves):
        raise Rejected("sequence", f"moves after a forfeit in round {s}")
    return winner, reason


def _play_maker_breaker(p: _Play) -> tuple[str, str]:
    s = 0
    while True:
        ended = None
        if p.unclaimed == 0:
            ended = ("blocker", "board-exhausted")
        elif p.connected and p.bedges and not p.offerable():
            ended = ("blocker", "no-legal-builder-move")
        if p.pos == len(p.moves):
            if ended is None:
                raise Rejected("sequence", f"transcript ends before round {s + 1}")
            return ended
        if ended is not None:
            raise Rejected("sequence", f"moves after the game ended by {ended[1]}")
        s += 1
        action = p.next_move("builder", s)
        if action.get("type") == "forfeit":
            return _end_of_claims(p, s, "blocker", "builder-forfeit")
        if action.get("type") != "claim":
            raise Rejected("format", f"builder action {action.get('type')!r}")
        p.builder_claim(action.get("edge"))
        if p.pos == len(p.moves) and not _bipartite(p.n, p.bedges):
            return "builder", "odd-cycle-closed"
        turn = min(p.b, p.unclaimed)
        for j in range(turn):
            if p.pos == len(p.moves) or p.moves[p.pos].get("role") != "blocker":
                raise Rejected("turn", f"round {s}: blocker made {j} of {turn} claims")
            action = p.next_move("blocker", s)
            if action.get("type") == "forfeit":
                return _end_of_claims(p, s, "builder", "blocker-forfeit")
            if action.get("type") != "claim":
                raise Rejected("format", f"blocker action {action.get('type')!r}")
            p.claim(action.get("edge"), BLOCKER)


def _play_client_waiter(p: _Play) -> tuple[str, str]:
    s = 0
    while True:
        ended = None
        if p.unclaimed == 0:
            ended = ("blocker", "board-exhausted")
        elif not p.offerable():
            ended = ("builder", "no-offerable-edges")
        if p.pos == len(p.moves):
            if ended is None:
                raise Rejected("sequence", f"transcript ends before round {s + 1}")
            return ended
        if ended is not None:
            raise Rejected("sequence", f"moves after the game ended by {ended[1]}")
        s += 1
        action = p.next_move("blocker", s)
        if action.get("type") == "forfeit":
            return _end_of_claims(p, s, "builder", "blocker-forfeit")
        if action.get("type") != "offer":
            raise Rejected("format", f"waiter action {action.get('type')!r}")
        offer = action.get("edges")
        p.check_offer(offer)
        action = p.next_move("builder", s)
        if action.get("type") == "forfeit":
            return _end_of_claims(p, s, "blocker", "builder-forfeit")
        if action.get("type") != "choose" or action.get("edge") not in offer:
            raise Rejected("offer", f"client choice {action!r} outside the offer")
        p.builder_claim(action["edge"])
        if p.pos == len(p.moves) and not _bipartite(p.n, p.bedges):
            return "builder", "odd-cycle-closed"  # the rest of the offer stays open
        for e in offer:
            if e != action["edge"]:
                p.claim(e, BLOCKER)


def referee(doc: dict, builder_name: str | None = None) -> dict:
    """Re-play one transcript (parsed JSON); raise Rejected on any broken rule.

    Returns {"winner", "reason", "claims", "digest", "own"} for accepted games.
    """
    p = _Play(doc)
    if p.variant == "maker-breaker":
        winner, reason = _play_maker_breaker(p)
    else:
        winner, reason = _play_client_waiter(p)
    # whole-graph 2-colouring: bipartite before the last builder claim, and
    # non-bipartite at the end exactly when an odd cycle decided the game
    if p.bedges and not _bipartite(p.n, p.bedges[:-1]):
        raise Rejected("bipartite", "builder graph had an odd cycle before its last claim")
    odd = not _bipartite(p.n, p.bedges)
    if odd != (reason == "odd-cycle-closed"):
        raise Rejected("bipartite", f"odd cycle {odd} but the game ended by {reason}")
    result = doc.get("result") or {}
    if (result.get("winner"), result.get("reason")) != (winner, reason):
        raise Rejected("result", f"recorded {result.get('winner')}/{result.get('reason')}, "
                       f"re-played {winner}/{reason}")
    if builder_name == "maker-oc" and winner == "blocker" and not _is_tree(p.n, p.bedges):
        raise Rejected("tree", "maker-oc lost without a spanning tree of its vertices")
    digest = hashlib.sha256(bytes(p.own)).hexdigest()
    if doc.get("digest") != digest:
        raise Rejected("digest", f"recorded {doc.get('digest')}, re-played {digest}")
    return {"winner": winner, "reason": reason, "claims": p.claims, "digest": digest,
            "own": p.own}


# -- self-test: each check must be able to fail -----------------------------------


def _moves_of(doc, role, kind):
    return [i for i, m in enumerate(doc["moves"])
            if m["role"] == role and m["action"]["type"] == kind]


def _clone(doc: dict, changed=()) -> dict:
    """Copy a transcript, sharing every move dict except those in `changed`."""
    out = dict(doc, result=dict(doc["result"]), moves=list(doc["moves"]))
    for i in changed:
        out["moves"][i] = copy.deepcopy(doc["moves"][i])
    return out


def _append(doc, s, role, action):
    doc["moves"].append({"s": s, "k": len(doc["moves"]), "role": role,
                         "action": action, "branch": None})


def _tampered(doc: dict, builder_name: str | None):
    """Yield (check expected to fire, tampered copy) for one accepted transcript."""
    cfg = doc["config"]
    n, b = cfg["n"], cfg["b"]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    played = referee(doc, builder_name)

    flipped = _clone(doc)
    res = flipped["result"]
    res["winner"] = "builder" if res["winner"] == "blocker" else "blocker"
    yield "result", flipped

    bad = _clone(doc)
    bad["digest"] = hashlib.sha256(b"tampered").hexdigest()
    yield "digest", bad

    claims = _moves_of(doc, "builder", "claim")
    if len(claims) >= 2:
        twice = _clone(doc, [claims[1]])
        twice["moves"][claims[1]]["action"]["edge"] = doc["moves"][claims[0]]["action"]["edge"]
        yield "unclaimed", twice

    blocker_claims = _moves_of(doc, "blocker", "claim")
    if blocker_claims:
        short = _clone(doc)
        del short["moves"][blocker_claims[0]]
        short["moves"] = [dict(m, k=k) for k, m in enumerate(short["moves"])]
        yield "turn", short

    offers = _moves_of(doc, "blocker", "offer")
    if offers:
        big = _clone(doc, [offers[0]])
        edges = big["moves"][offers[0]]["action"]["edges"]
        edges.extend([e for e in range(len(pairs)) if e not in edges][:b + 2 - len(edges)])
        yield "offer", big

    if cfg["rules"] == "connected" and len(claims) >= 2:
        u, v = pairs[doc["moves"][claims[0]]["action"]["edge"]]
        far = [e for e, (x, y) in enumerate(pairs) if not {x, y} & {u, v}]
        if far:
            apart = _clone(doc, [claims[1]])
            apart["moves"][claims[1]]["action"]["edge"] = far[0]
            yield "connected", apart

    if played["reason"] == "odd-cycle-closed":
        cut = _clone(doc)
        cut["moves"].pop()
        yield "sequence", cut
        # play on after the odd cycle: one more legal round ending in a builder claim
        own = played["own"]
        builder_edges = claims + _moves_of(doc, "builder", "choose")
        bverts = {x for i in builder_edges for x in pairs[doc["moves"][i]["action"]["edge"]]}
        open_edges = [e for e in range(len(pairs)) if own[e] == UNCLAIMED]
        s = doc["moves"][-1]["s"]
        late = _clone(doc)
        if cfg["variant"] == "maker-breaker":
            turn = min(b, len(open_edges))
            taken = open_edges[:turn]
        else:
            taken = doc["moves"][-2]["action"]["edges"]  # the rest of the last offer
        legal = [e for e in open_edges if e not in taken
                 and (cfg["rules"] == "free" or set(pairs[e]) & bverts)]
        if legal:
            if cfg["variant"] == "maker-breaker":
                for e in taken:
                    _append(late, s, "blocker", {"type": "claim", "edge": e})
                _append(late, s + 1, "builder", {"type": "claim", "edge": legal[0]})
            else:
                _append(late, s + 1, "blocker", {"type": "offer", "edges": [legal[0]]})
                _append(late, s + 1, "builder", {"type": "choose", "edge": legal[0]})
            yield "bipartite", late

    if played["winner"] == "blocker" and builder_name != "maker-oc":
        builder_edges = [pairs[doc["moves"][i]["action"]["edge"]]
                         for i in claims + _moves_of(doc, "builder", "choose")]
        if not _is_tree(n, builder_edges):
            yield "tree", doc  # another builder's loss, presented as maker-oc's


def self_test(games) -> set[str]:
    """Feed tampered copies of accepted (doc, builder_name) games to the referee.

    Returns the set of checks seen to reject a tampered copy.  Raises
    AssertionError when a tampered copy is accepted or rejected by another check.
    """
    fired: set[str] = set()
    for doc, builder_name in games:
        for check, bad in _tampered(doc, builder_name):
            name = "maker-oc" if check == "tree" else builder_name
            try:
                referee(bad, name)
            except Rejected as exc:
                if exc.check != check:
                    raise AssertionError(f"tamper for {check!r} caught by {exc.check!r}: {exc}")
                fired.add(exc.check)
                continue
            raise AssertionError(f"tampered transcript accepted (expected {check!r})")
    return fired
