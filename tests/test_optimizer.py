import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from oddcycle.board import edge_index
from oddcycle.optimizer import (
    CASE_NAMES,
    Shape,
    breaker_bias,
    breaker_constant_audit,
    build_min_graph,
    continuous_case_value,
    gnb_membership,
    havel_hakimi,
    iter_shapes,
    min_edges,
    min_edges_split,
    minimize_f,
    overall_constant,
    prior_lower_constant,
    prior_upper_constant,
    saved_budget,
)

EPS06 = Fraction(6, 100)


def test_closed_forms_match_numeric_search():
    for case in CASE_NAMES:
        closed = float(continuous_case_value(case))
        searched = float(continuous_case_value(case, numeric=True))
        assert abs(closed - searched) < 1e-9, case


def test_pinned_case_constants():
    assert abs(float(continuous_case_value("case11_s0")) - 1 / 3) < 1e-12
    binding = (4 - math.sqrt(6)) / 5
    assert abs(float(continuous_case_value("case11_s1")) - binding) < 1e-12
    assert abs(float(continuous_case_value("case12_s1")) - binding) < 1e-12
    # stationary point, not an objective value; still above the binding constant
    s0 = float(continuous_case_value("case12_s0"))
    assert abs(s0 - (2 - math.sqrt(5 / 2))) < 1e-12
    assert s0 > binding
    assert abs(float(continuous_case_value("case2_s0")) - 0.5) < 1e-12
    assert abs(float(continuous_case_value("case2_s1")) - 1.0) < 1e-12


def test_overall_constant_is_the_case_minimum():
    binding = (4 - math.sqrt(6)) / 5
    assert abs(float(overall_constant()) - binding) < 1e-12
    assert abs(float(overall_constant(numeric=True)) - binding) < 1e-9
    values = [float(continuous_case_value(c)) for c in CASE_NAMES]
    assert min(values) == pytest.approx(binding, abs=1e-12)


def test_constant_sits_between_the_prior_bounds():
    lo = float(prior_lower_constant())
    hi = float(prior_upper_constant())
    assert abs(lo - (1 - 1 / math.sqrt(2))) < 1e-12
    assert abs(hi - 1 / (4 * math.log(2))) < 1e-12
    assert lo < float(overall_constant()) < hi


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        continuous_case_value("case3_s2")


def test_iter_shapes_well_formed():
    shapes = list(iter_shapes(7, 1))
    assert Shape(7, 1, (4,)) in shapes
    assert Shape(7, 1, (2, 1, 1)) in shapes
    assert len(shapes) == len(set(shapes))
    for sh in shapes:
        assert all(a >= 1 for a in sh.a_sizes)
        assert sh.r >= 0
        assert sh.denom >= 1
        assert sh.s + 1 + sh.a_total + sh.r == 7


def test_minimize_f_7_1():
    res = minimize_f(7, 1)
    assert res.value == Fraction(2)
    found = {opt.shape.a_sizes: (opt.edges, opt.r2_options) for opt in res.argmins}
    assert found == {
        (4,): (8, (2,)),
        (3, 1): (10, (1,)),
        (4, 1): (12, (0,)),
        (2, 1, 1): (12, (0,)),
    }


def test_min_edges_split_worked_example():
    # one hub, a block of two, all four R vertices on the degree option
    sh = Shape(n=7, b=1, a_sizes=(2,))
    assert sh.denom == 2
    assert min_edges_split(sh, 4) == 9
    # its ratio 9/2 is far from the global optimum 2
    assert Fraction(9, sh.denom) > minimize_f(7, 1).value


def test_min_edges_agrees_with_split_scan():
    for sh in [Shape(7, 1, (4,)), Shape(9, 2, (2, 1)), Shape(10, 3, (3,))]:
        best, ties = min_edges(sh)
        per_split = [min_edges_split(sh, r2) for r2 in range(sh.r + 1)]
        assert best == min(per_split)
        assert ties == tuple(r2 for r2, e in enumerate(per_split) if e == best)


def test_argmins_have_singleton_upper_blocks():
    # every minimizer keeps |A_j| = 1 for j >= 1 and sizes A_0 within a
    # narrow band of the degree-option count
    for n in range(3, 11):
        for b in range(1, n):
            for opt in minimize_f(n, b).argmins:
                sizes = opt.shape.a_sizes
                assert all(a == 1 for a in sizes[1:]), (n, b, sizes)
                s = opt.shape.s
                if s >= 1:
                    for r2 in opt.r2_options:
                        assert r2 + s <= sizes[0] <= r2 + s + 3, (n, b, sizes, r2)


def test_build_min_graph_achieves_bound_and_certifies():
    for n, b in [(7, 1), (9, 2), (10, 3)]:
        for opt in minimize_f(n, b).argmins:
            for r2 in opt.r2_options:
                edges, hubs, blocks = build_min_graph(opt.shape, r2)
                assert len(edges) == min_edges_split(opt.shape, r2)
                ok, why = gnb_membership(n, b, edges, hubs, blocks)
                assert ok, (opt.shape, r2, why)


def test_gnb_membership_small_acceptance():
    # one hub, one block vertex, two R vertices that need no internal degree
    edges = {edge_index(0, 2, 4), edge_index(0, 3, 4)}
    ok, why = gnb_membership(4, 1, edges, [0], [{1}])
    assert ok, why
    ok, why = gnb_membership(4, 1, {edge_index(0, 2, 4)}, [0], [{1}])
    assert not ok
    assert "hub-R" in why


def test_gnb_membership_shape_rejections():
    edges, hubs, blocks = build_min_graph(Shape(7, 1, (4,)), 2)
    assert gnb_membership(7, 1, edges, [], [])[1] == "no hubs"
    assert not gnb_membership(7, 1, edges, [0], [])[0]
    assert not gnb_membership(7, 1, edges, [0, 0], [{1}, {2}])[0]
    assert not gnb_membership(7, 1, edges, [0], [set()])[0]
    assert not gnb_membership(7, 1, edges, [0, 1], [{2, 3}, {3}])[0]
    assert not gnb_membership(7, 1, edges, [0], [{0, 1}])[0]
    assert not gnb_membership(7, 1, edges, [0], [{1, 7}])[0]


def test_gnb_membership_missing_edge_rejections():
    edges, hubs, blocks = build_min_graph(Shape(7, 1, (4,)), 2)
    dropped = set(edges)
    dropped.discard(edge_index(0, 5, 7))
    ok, why = gnb_membership(7, 1, dropped, hubs, blocks)
    assert not ok and "hub-R" in why
    dropped = set(edges)
    dropped.discard(edge_index(1, 2, 7))
    ok, why = gnb_membership(7, 1, dropped, hubs, blocks)
    assert not ok and "block-block" in why
    # two hubs: drop the hub-hub edge and a v_i-A_j edge
    edges2, hubs2, blocks2 = build_min_graph(Shape(9, 2, (2, 1)), 1)
    dropped = set(edges2)
    dropped.discard(edge_index(0, 1, 9))
    ok, why = gnb_membership(9, 2, dropped, hubs2, blocks2)
    assert not ok and "hub-hub" in why
    upper = next(iter(blocks2[1]))
    dropped = set(edges2)
    dropped.discard(edge_index(0, upper, 9))
    ok, why = gnb_membership(9, 2, dropped, hubs2, blocks2)
    assert not ok


def test_gnb_membership_degree_option_rejection():
    sh = Shape(10, 3, (3,))
    edges, hubs, blocks = build_min_graph(sh, 3)
    r2v = [4, 5, 6]
    internal = [e for u, v in itertools.combinations(r2v, 2)
                if (e := edge_index(u, v, 10)) in edges]
    assert len(internal) == 3
    dropped = set(edges)
    dropped.discard(internal[0])
    ok, why = gnb_membership(10, 3, dropped, hubs, blocks)
    assert not ok and "R-degree" in why


def test_havel_hakimi_small_cases():
    tri = havel_hakimi([2, 2, 2])
    assert tri is not None and len(tri) == 3
    assert havel_hakimi([3, 1]) is None
    assert havel_hakimi([1, 1, 1]) is None
    assert havel_hakimi([0, 0]) == []


def test_havel_hakimi_realizes_random_sequences():
    rng = random.Random(20260819)
    for _ in range(50):
        n = rng.randrange(3, 12)
        pool = list(itertools.combinations(range(n), 2))
        picked = rng.sample(pool, rng.randrange(0, len(pool) + 1))
        degs = [0] * n
        for u, v in picked:
            degs[u] += 1
            degs[v] += 1
        realized = havel_hakimi(degs)
        assert realized is not None
        assert len(realized) == len(set(realized)) == len(picked)
        got = [0] * n
        for u, v in realized:
            assert u < v
            got[u] += 1
            got[v] += 1
        assert got == degs


def test_saved_budget_and_bias_values():
    assert saved_budget(EPS06, 200) == 1100
    assert saved_budget(EPS06, 34) == 17
    assert breaker_bias(100, EPS06) == 47
    assert breaker_bias(200, EPS06) == 94
    # the binary float 0.06 sits just below 6/100, dropping the floor by one
    assert saved_budget(Fraction(0.06), 200) == 1099


def test_audit_rows_at_006():
    dps = mpmath.mp.dps
    rep = breaker_constant_audit(EPS06, n=200)
    assert mpmath.mp.dps == dps  # the audit's working precision does not leak
    rows = {r.name: r for r in rep.rows}
    assert rows["bias-fraction"].lhs == pytest.approx(0.47)
    assert rows["saved-budget"].lhs == 1100
    assert rows["bias-at-n"].lhs == 94
    assert rows["size-vs-budget"].lhs == pytest.approx(0.0675)
    assert rows["size-vs-budget"].rhs == pytest.approx(0.03)
    assert rows["size-vs-budget"].holds
    assert rows["per-round-degree-increment"].lhs == pytest.approx(1.41)
    assert rows["late-win-window"].lhs == pytest.approx(2 / 3 + 0.24)
    assert rows["late-win-window"].holds and not rows["late-win-window"].flags
    assert rows["gain-factor-1"].lhs == pytest.approx(-0.3897087498689331)
    assert rows["gain-factor-2"].lhs == pytest.approx(-0.2919940383203895)
    assert rows["gain-product-vs-eps"].lhs == pytest.approx(0.11379263164302034)
    assert rows["phase-one-rounds"].lhs == 42
    assert rows["phase-two-rounds"].lhs == 84
    assert rows["improves-prior-lower"].holds
    assert rows["below-prior-upper"].holds
    assert not rep.all_hold
    assert [r.name for r in rep.flagged] == [
        "gain-factor-1", "gain-factor-2", "gain-product-vs-eps"]
    for name in ("gain-factor-1", "gain-factor-2"):
        assert rows[name].flags == ("nonpositive-factor",)
        assert not rows[name].holds
    assert rows["gain-product-vs-eps"].flags == (
        "vacuous-product-of-nonpositive-factors",)


def test_audit_without_n_drops_size_dependent_rows():
    rep = breaker_constant_audit(0.06)
    names = [r.name for r in rep.rows]
    assert "saved-budget" not in names
    assert "bias-at-n" not in names
    assert "phase-one-rounds" not in names
    assert "size-vs-budget" in names


def test_audit_clean_at_small_eps():
    rep = breaker_constant_audit(Fraction(1, 1000), n=500)
    assert rep.all_hold
    assert rep.flagged == []


def test_audit_flags_large_eps_window():
    rep = breaker_constant_audit(Fraction(1, 10))
    rows = {r.name: r for r in rep.rows}
    assert rows["late-win-window"].flags == ("needs-eps-below-1/15",)
