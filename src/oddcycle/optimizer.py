"""Edge-count optimization behind the bias thresholds.

A blocked-graph certificate consists of hub vertices v_0..v_s with disjoint
nonempty blocks A_0..A_s hanging off them; R is everything else.  The
certificate accepts a graph when it contains all edges inside the hub set,
all edges inside the union of blocks, every hub-R edge, the edges v_i-A_j for
i < j, and when every R vertex is either fully joined to the non-R side or
has at least |R|-b-1 edges into the rest of R.

min_edges computes the fewest edges such a graph can have for a given shape,
minimize_f minimizes edges/(|blocks| + s) over all shapes, and the continuous
case table reproduces the limiting constants of that optimization.  Only one
shape per hub count and block total can be a minimizer, the one whose upper
blocks A_1..A_s are single vertices, so minimize_f tries O(n^2) shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .board import edge_index


# -- structural certificate ---------------------------------------------------


def gnb_membership(n: int, b: int, blocked_edges: set[int],
                   hubs: list[int], blocks: list[set[int]]) -> tuple[bool, str]:
    """Check a blocked-edge set against the hub/block certificate.

    Returns (True, "") on acceptance, else (False, reason).
    """
    s1 = len(hubs)
    if s1 == 0:
        return False, "no hubs"
    if len(blocks) != s1:
        return False, f"{s1} hubs but {len(blocks)} blocks"
    if len(set(hubs)) != s1:
        return False, "repeated hub"
    union: set[int] = set()
    for i, blk in enumerate(blocks):
        if not blk:
            return False, f"block {i} is empty"
        if blk & union:
            return False, f"block {i} overlaps an earlier block"
        union |= blk
    hubset = set(hubs)
    if union & hubset:
        return False, "a block contains a hub"
    everyone = hubset | union
    if not everyone <= set(range(n)):
        return False, "vertex out of range"
    r_set = set(range(n)) - everyone

    def has(u, v):
        return edge_index(u, v, n) in blocked_edges

    for i, u in enumerate(hubs):
        for v in hubs[i + 1:]:
            if not has(u, v):
                return False, f"missing hub-hub edge ({u},{v})"
    members = sorted(union)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if not has(u, v):
                return False, f"missing block-block edge ({u},{v})"
    for u in hubs:
        for v in r_set:
            if not has(u, v):
                return False, f"missing hub-R edge ({u},{v})"
    for i, u in enumerate(hubs):
        for j in range(i + 1, s1):
            for v in blocks[j]:
                if not has(u, v):
                    return False, f"missing hub-block edge ({u},{v})"
    need = len(r_set) - b - 1
    for v in r_set:
        if all(has(v, w) for w in everyone):
            continue
        deg_r = sum(1 for w in r_set if w != v and has(v, w))
        if deg_r < need:
            return False, (f"R vertex {v} neither fully joined to the rest "
                           f"nor of R-degree {need}")
    return True, ""


# -- shape-level edge minimum ---------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """s+1 hubs with block sizes a_sizes (a_sizes[0] belongs to hub 0)."""

    n: int
    b: int
    a_sizes: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.a_sizes) - 1

    @property
    def a_total(self) -> int:
        return sum(self.a_sizes)

    @property
    def r(self) -> int:
        return self.n - len(self.a_sizes) - self.a_total

    @property
    def denom(self) -> int:
        return self.a_total + self.s


def _r2_cost(r: int, r2: int, d: int) -> int:
    """Fewest R-internal (plus spill) edges giving r2 vertices R-degree >= d."""
    if d <= 0 or r2 == 0:
        return 0
    if r2 > d:
        return (r2 * d + 1) // 2
    return r2 * (r2 - 1) // 2 + r2 * (d - r2 + 1)


def min_edges_split(shape: Shape, r2: int) -> int:
    """Edge minimum when exactly r2 of the R vertices take the degree option."""
    s = shape.s
    a = shape.a_total
    r = shape.r
    r1 = r - r2
    d = max(0, r - shape.b - 1)
    base = (s + 1) * s // 2
    base += a * (a - 1) // 2
    base += sum(j * shape.a_sizes[j] for j in range(1, s + 1))
    base += (s + 1) * r
    return base + r1 * a + _r2_cost(r, r2, d)


def min_edges(shape: Shape) -> tuple[int, tuple[int, ...]]:
    """Edge minimum over the R1/R2 split, with every minimizing r2."""
    best = None
    ties: list[int] = []
    for r2 in range(shape.r + 1):
        e = min_edges_split(shape, r2)
        if best is None or e < best:
            best = e
            ties = [r2]
        elif e == best:
            ties.append(r2)
    return best, tuple(ties)


@dataclass(frozen=True)
class ShapeOptimum:
    shape: Shape
    edges: int
    r2_options: tuple[int, ...]

    @property
    def value(self) -> Fraction:
        return Fraction(self.edges, self.shape.denom)


@dataclass
class MinimizeResult:
    n: int
    b: int
    value: Fraction
    argmins: list[ShapeOptimum]


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_shapes(n: int, b: int):
    """All hub/block shapes that fit in n vertices (denominator positive)."""
    for s in range(n):
        for a_total in range(s + 1, n - s):
            for sizes in _compositions(a_total, s + 1):
                yield Shape(n=n, b=b, a_sizes=sizes)


def minimize_f(n: int, b: int) -> MinimizeResult:
    """Minimize edges/(|blocks|+s) over all shapes, keeping every argmin.

    For fixed s and a_total, min_edges_split depends on the block sizes only
    through the sum of j*a_j over j >= 1.  Every a_j is at least 1, so that
    sum is least exactly when a_j = 1 for all j >= 1; any other composition
    has strictly more edges at every r2 and is never an argmin.  So one shape
    per (s, a_total), tried in iter_shapes' order, gives the same value and
    the same argmin list as all of them.
    """
    best: Fraction | None = None
    argmins: list[ShapeOptimum] = []
    for s in range(n):
        for a_total in range(s + 1, n - s):
            shape = Shape(n=n, b=b, a_sizes=(a_total - s,) + (1,) * s)
            opt = ShapeOptimum(shape, *min_edges(shape))
            if best is None or opt.value < best:
                best, argmins = opt.value, [opt]
            elif opt.value == best:
                argmins.append(opt)
    return MinimizeResult(n=n, b=b, value=best, argmins=argmins)


# -- explicit extremal graphs ----------------------------------------------------


def havel_hakimi(degrees: list[int]) -> list[tuple[int, int]] | None:
    """Realize a degree sequence as a simple graph, or None if impossible."""
    remaining = sorted(((d, v) for v, d in enumerate(degrees)), reverse=True)
    edges = []
    while remaining:
        d, v = remaining.pop(0)
        if d == 0:
            continue
        if d > len(remaining):
            return None
        for i in range(d):
            di, vi = remaining[i]
            if di <= 0:
                return None
            edges.append((min(v, vi), max(v, vi)))
            remaining[i] = (di - 1, vi)
        remaining.sort(reverse=True)
    return edges


def build_min_graph(shape: Shape, r2: int) -> tuple[set[int], list[int], list[set[int]]]:
    """Construct a graph achieving min_edges_split(shape, r2).

    Returns (blocked edge ids, hubs, blocks) over vertices 0..n-1 laid out as
    hubs, then blocks in order, then the degree-option R vertices, then the
    fully-joined ones.
    """
    n = shape.n
    s = shape.s
    hubs = list(range(s + 1))
    blocks = []
    next_v = s + 1
    for size in shape.a_sizes:
        blocks.append(set(range(next_v, next_v + size)))
        next_v += size
    r2_vertices = list(range(next_v, next_v + r2))
    r1_vertices = list(range(next_v + r2, n))
    union = sorted(set().union(*blocks)) if blocks else []
    edges = set()

    def add(u, v):
        edges.add(edge_index(u, v, n))

    for i in range(s + 1):
        for j in range(i + 1, s + 1):
            add(hubs[i], hubs[j])
    for i in range(len(union)):
        for j in range(i + 1, len(union)):
            add(union[i], union[j])
    for h in hubs:
        for v in r2_vertices + r1_vertices:
            add(h, v)
    for i in range(s + 1):
        for j in range(i + 1, s + 1):
            for v in blocks[j]:
                add(hubs[i], v)
    for v in r1_vertices:
        for w in union:
            add(v, w)
    d = max(0, shape.r - shape.b - 1)
    if d > 0 and r2 > 0:
        if r2 > d:
            degs = [d] * r2
            if (r2 * d) % 2 == 1:
                degs[0] = d + 1
            internal = havel_hakimi(degs)
            if internal is None:
                raise AssertionError("degree-option sequence not realizable")
            for i, j in internal:
                add(r2_vertices[i], r2_vertices[j])
        else:
            for i in range(r2):
                for j in range(i + 1, r2):
                    add(r2_vertices[i], r2_vertices[j])
            spill = d - r2 + 1
            for v in r2_vertices:
                for w in r1_vertices[:spill]:
                    add(v, w)
    return edges, hubs, blocks


# -- continuous case table ---------------------------------------------------------


def _golden_min(f, lo, hi, tol=None):
    """Golden-section argmin of a unimodal function on [lo, hi]."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if tol is None:
        tol = mp.mpf(10) ** (-int(mp.mp.dps * 0.6))
    invphi = (mp.sqrt(5) - 1) / 2
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2


def _bisect_root(f, lo, hi, tol=None):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if tol is None:
        tol = mp.mpf(10) ** (-int(mp.mp.dps * 0.6))
    flo = f(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if (fm <= 0) == (flo <= 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


CASE_NAMES = ("case11_s0", "case11_s1", "case12_s0", "case12_s1",
              "case2_s0", "case2_s1")


def continuous_case_value(case: str, numeric: bool = False):
    """Limiting constant of one branch of the shape optimization.

    With numeric=True the value is recomputed by high-precision search
    instead of the closed form.  The case12_s0 entry is the stationary point
    of its objective rather than the objective's value there; both exceed the
    overall constant, so the branch never binds either way.
    """
    with mp.workdps(50):
        if case == "case11_s0":
            if not numeric:
                return mp.mpf(1) / 3
            f = lambda p: mp.mpf(max(p, (1 - p) / 2))
            p = _golden_min(f, 0, mp.mpf(1) / 2)
            return f(p)
        if case == "case11_s1":
            if not numeric:
                return (4 - mp.sqrt(6)) / 5
            f = lambda p: mp.mpf(max(p, (2 - 2 * p - p ** 2) / (6 * (1 - p))))
            p = _golden_min(f, 0, mp.mpf("0.9"))
            return f(p)
        if case == "case12_s0":
            if not numeric:
                return 2 - mp.sqrt(mp.mpf(5) / 2)
            h = lambda p: (1 - 2 * p + 2 * p ** 2) / (2 - p)
            return _golden_min(h, 0, mp.mpf(1) / 2)
        if case == "case12_s1":
            if not numeric:
                return (4 - mp.sqrt(6)) / 5
            # beta is squeezed between g2(rho) and rho, so only rho with
            # g2(rho) <= rho are feasible; minimize g2 over that region
            g2 = lambda p: (2 - 2 * p + 2 * p ** 2) / (6 - 3 * p)
            pc = _bisect_root(lambda p: g2(p) - p, mp.mpf("0.1"), mp.mpf("0.9"))
            p = _golden_min(g2, pc, mp.mpf("0.99"))
            return g2(p)
        if case == "case2_s0":
            if not numeric:
                return mp.mpf(1) / 2
            f = lambda p: (1 + p) / 2
            p = _golden_min(f, 0, 1)
            return f(p)
        if case == "case2_s1":
            if not numeric:
                return mp.mpf(1)
            # the two inequalities on the auxiliary fraction reduce to
            # (1-t)/2 <= (1-t)/7, whose boundary is the root of the difference
            h = lambda t: (1 - t) / 7 - (1 - t) / 2
            return _bisect_root(h, 0, mp.mpf("1.5"))
        raise ValueError(f"unknown case: {case!r}")


def overall_constant(numeric: bool = False):
    """The binding constant (4 - sqrt(6))/5 across all cases."""
    with mp.workdps(50):
        if not numeric:
            return (4 - mp.sqrt(6)) / 5
        return min(continuous_case_value(c, numeric=True) for c in CASE_NAMES)


def prior_lower_constant():
    """Previously best lower-bound constant, 1 - 1/sqrt(2)."""
    with mp.workdps(50):
        return 1 - 1 / mp.sqrt(2)


def prior_upper_constant():
    """Previously best upper-bound constant, 1/(4 ln 2)."""
    with mp.workdps(50):
        return 1 / (4 * mp.log(2))


# -- asymptotic audit ------------------------------------------------------------


def saved_budget(eps: Fraction, n: int) -> int:
    """Exact floor((eps*n^2 - n)/2) using rational arithmetic."""
    eps = Fraction(eps)
    return (eps * n * n - n) // 2


def breaker_bias(n: int, eps: Fraction) -> int:
    """Blocker bias floor((1-eps)*n/2) for the asymptotic argument."""
    eps = Fraction(eps)
    return ((1 - eps) * n) // 2


@dataclass
class AuditRow:
    name: str
    lhs: float
    rhs: float
    relation: str
    holds: bool
    flags: tuple[str, ...] = ()


@dataclass
class AuditReport:
    eps: Fraction
    n: int | None
    rows: list[AuditRow]

    @property
    def flagged(self) -> list[AuditRow]:
        return [r for r in self.rows if r.flags]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)


def breaker_constant_audit(eps, n: int | None = None) -> AuditReport:
    """Numeric audit of the inequalities in the blocker-side argument.

    Every quantity is evaluated at the given eps (exact rational where the
    inequality is exact).  Per-round gain factors that come out nonpositive
    are flagged rather than silently used: a product of two negative factors
    is numerically positive but carries no meaning as a progress bound.
    """
    with mp.workdps(max(mp.mp.dps, 30)):
        e = Fraction(eps)
        ef = float(e)
        ee = mp.mpf(e.numerator) / e.denominator
        rt = mp.sqrt(ee)
        rows = []

        beta = (1 - e) / 2
        rows.append(AuditRow("bias-fraction", float(beta), 0.5, "<=",
                             beta <= Fraction(1, 2)))
        if n is not None:
            rows.append(AuditRow("saved-budget", saved_budget(e, n),
                                 float((e * n * n - n) / 2), "==floor",
                                 True))
            rows.append(AuditRow("bias-at-n", breaker_bias(n, e),
                                 float((1 - e) * n / 2), "==floor", True))
        lhs = Fraction(9, 8) * e
        rhs = e / 2
        rows.append(AuditRow("size-vs-budget", float(lhs), float(rhs), ">",
                             lhs > rhs))
        lhs = Fraction(3, 2) * (1 - e)
        rows.append(AuditRow("per-round-degree-increment", float(lhs), 1.5, "<=",
                             lhs <= Fraction(3, 2)))
        lhs = Fraction(2, 3) + 4 * e
        rhs = 1 - e
        rows.append(AuditRow("late-win-window", float(lhs), float(rhs), "<",
                             lhs < rhs,
                             flags=() if e < Fraction(1, 15) else ("needs-eps-below-1/15",)))
        two_thirds = mp.mpf(2) / 3
        f1 = (two_thirds - rt) / 8 - 3 * rt / 2 - 5 * ee / 4
        rows.append(AuditRow("gain-factor-1", float(f1), 0.0, ">",
                             f1 > 0, flags=() if f1 > 0 else ("nonpositive-factor",)))
        f2 = (two_thirds - rt) / 4 - ee / 2 - 3 * rt / 2
        rows.append(AuditRow("gain-factor-2", float(f2), 0.0, ">",
                             f2 > 0, flags=() if f2 > 0 else ("nonpositive-factor",)))
        prod = f1 * f2
        prod_flags = []
        if f1 <= 0 or f2 <= 0:
            prod_flags.append("vacuous-product-of-nonpositive-factors")
        rows.append(AuditRow("gain-product-vs-eps", float(prod), ef, ">",
                             bool(prod > ef), flags=tuple(prod_flags)))
        if n is not None:
            s1 = int(mp.floor((two_thirds - rt) * n / 2))
            rows.append(AuditRow("phase-one-rounds", s1, float((two_thirds - rt) * n / 2),
                                 "==floor", True))
            rows.append(AuditRow("phase-two-rounds", 2 * s1, 2.0 * s1, "==", True))
        const = float(overall_constant())
        rows.append(AuditRow("improves-prior-lower", const, float(prior_lower_constant()),
                             ">", const > float(prior_lower_constant())))
        rows.append(AuditRow("below-prior-upper", const, float(prior_upper_constant()),
                             "<", const < float(prior_upper_constant())))
        return AuditReport(eps=e, n=n, rows=rows)
