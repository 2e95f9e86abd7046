"""Plain minimax for the smallest boards, written apart from oddcycle.solver.

Positions are bitmasks over the edges of K_n in lexicographic order of their
endpoint pairs.  The search has a transposition table and nothing else: none
of the solver's shortcuts (2-colourability cut-off, forced covering of
cycle-closing edges, closer caches).  Odd cycles are found by BFS 2-colouring.
"""

from __future__ import annotations

import itertools


def edge_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class _Board:
    def __init__(self, n: int):
        self.n = n
        self.pairs = edge_pairs(n)
        self.E = len(self.pairs)
        self.full = (1 << self.E) - 1

    def bits(self, mask: int) -> list[int]:
        return [e for e in range(self.E) if mask >> e & 1]

    def vertices(self, mask: int) -> set[int]:
        out = set()
        for e in self.bits(mask):
            out.update(self.pairs[e])
        return out

    def touching(self, mask: int, verts: set[int]) -> int:
        out = 0
        for e in self.bits(mask):
            u, v = self.pairs[e]
            if u in verts or v in verts:
                out |= 1 << e
        return out

    def closes_odd_cycle(self, mask: int, e: int) -> bool:
        """Does adding edge e to the graph `mask` create an odd cycle?"""
        u, v = self.pairs[e]
        adj: dict[int, list[int]] = {}
        for f in self.bits(mask):
            a, c = self.pairs[f]
            adj.setdefault(a, []).append(c)
            adj.setdefault(c, []).append(a)
        colour = {u: 0}
        queue = [u]
        for x in queue:
            for y in adj.get(x, ()):
                if y not in colour:
                    colour[y] = colour[x] ^ 1
                    queue.append(y)
        return v in colour and colour[v] == colour[u]


def maker_breaker_builder_wins(n: int, b: int, connected: bool) -> bool:
    """Does Maker win the Maker-Breaker game on K_n with bias b from the empty board?"""
    g = _Board(n)
    memo: dict = {}

    def legal(bld: int, unclaimed: int) -> int:
        if connected and bld:
            return g.touching(unclaimed, g.vertices(bld))
        return unclaimed

    def builder_to_move(bld: int, blk: int) -> bool:
        key = (bld, blk, -1)
        if key in memo:
            return memo[key]
        unclaimed = g.full & ~(bld | blk)
        result = False
        for e in g.bits(legal(bld, unclaimed)):
            if g.closes_odd_cycle(bld, e):
                result = True
            else:
                left = min(b, bin(unclaimed).count("1") - 1)
                result = blocker_to_move(bld | 1 << e, blk, left)
            if result:
                break
        memo[key] = result
        return result

    def blocker_to_move(bld: int, blk: int, left: int) -> bool:
        if left == 0:
            return builder_to_move(bld, blk)
        key = (bld, blk, left)
        if key in memo:
            return memo[key]
        unclaimed = g.full & ~(bld | blk)
        result = all(blocker_to_move(bld, blk | 1 << e, left - 1)
                     for e in g.bits(unclaimed))
        memo[key] = result
        return result

    return builder_to_move(0, 0)


def client_waiter_client_wins(n: int, b: int) -> bool:
    """Does Client win the monotone connected Client-Waiter game on K_n with bias b?"""
    g = _Board(n)
    memo: dict = {}

    def offers(cli: int, unclaimed: int):
        size = b + 1
        if cli == 0:
            seen = set()
            for v in range(n):
                star = g.bits(g.touching(unclaimed, {v}))
                for k in range(1, min(size, len(star)) + 1):
                    for comb in itertools.combinations(star, k):
                        if comb not in seen:
                            seen.add(comb)
                            yield comb
            return
        pool = g.bits(g.touching(unclaimed, g.vertices(cli)))
        for k in range(1, min(size, len(pool)) + 1):
            yield from itertools.combinations(pool, k)

    def client_wins(cli: int, wtr: int) -> bool:
        key = (cli, wtr)
        if key in memo:
            return memo[key]
        unclaimed = g.full & ~(cli | wtr)
        if unclaimed == 0:
            result = False
        elif cli and not g.touching(unclaimed, g.vertices(cli)):
            result = True  # no offerable edge while edges remain
        else:
            result = True
            for offer in offers(cli, unclaimed):
                mask = sum(1 << e for e in offer)
                if not any(g.closes_odd_cycle(cli, e)
                           or client_wins(cli | 1 << e, wtr | (mask & ~(1 << e)))
                           for e in offer):
                    result = False
                    break
        memo[key] = result
        return result

    return client_wins(0, 0)


# Boards small enough for the plain search: (variant, rules, n, b).
MB_BOARDS = [("maker-breaker", rules, n, b)
             for rules in ("free", "connected")
             for n in (3, 4, 5)
             for b in range(1, 5)]
CW_BOARDS = [("client-waiter", "connected", n, b)
             for n in (3, 4, 5)
             for b in range(0, 3)]
BOARDS = MB_BOARDS + CW_BOARDS


def winner(variant: str, rules: str, n: int, b: int) -> str:
    """'builder' or 'blocker' under optimal play from the empty board."""
    if variant == "maker-breaker":
        win = maker_breaker_builder_wins(n, b, rules == "connected")
    else:
        win = client_waiter_client_wins(n, b)
    return "builder" if win else "blocker"

