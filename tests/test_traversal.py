import random

import pytest

from origami.transducers import OriginGraph, RunCaps, run_origin_graphs
from origami.traversal import (traverses, traversal_report, max_traversal, mirror,
                               greedy_label, GreedyLabelError, LabelAssignment,
                               TraversalError)
from origami.resync import make_Rk, check_witness

from outcomes import outcome


def graph(u, v, orig):
    return OriginGraph(u, v, tuple(orig))


def greedy_label_recompute(sigma, sigma_p, k):
    """Reference for ``greedy_label``: recomputes the free indexes from
    scratch at each step."""
    rights = [set() for _ in range(k)]
    lefts = [set() for _ in range(k)]
    r_dist = sorted({sigma.orig[t] for t in range(len(sigma.output))
                     if sigma_p.orig[t] > sigma.orig[t]})
    l_dist = sorted({sigma.orig[t] for t in range(len(sigma.output))
                     if sigma_p.orig[t] < sigma.orig[t]}, reverse=True)
    for x in r_dist:
        free = [i for i in range(k)
                if all(not traverses(sigma, sigma_p, s, x) for s in rights[i])]
        if not free:
            raise GreedyLabelError("k-traversal exceeded")
        rights[free[0]].add(x)
    for x in l_dist:
        free = [i for i in range(k)
                if all(not traverses(sigma, sigma_p, s, x) for s in lefts[i])]
        if not free:
            raise GreedyLabelError("k-traversal exceeded")
        lefts[free[0]].add(x)
    return LabelAssignment(tuple(frozenset(s) for s in rights),
                           tuple(frozenset(s) for s in lefts))


def random_pair(rng, max_len=8):
    n = rng.randint(1, max_len)
    u = "".join(rng.choice("ab") for _ in range(n))
    m = rng.randint(0, max_len)
    v = "".join(rng.choice("cd") for _ in range(m))
    s = graph(u, v, [rng.randint(1, n) for _ in range(m)])
    sp = graph(u, v, [rng.randint(1, n) for _ in range(m)])
    return s, sp


OTHER_OUTPUT = (graph("ab", "c", [1]), graph("ab", "d", [1]))
EQUAL = (graph("ab", "c", [1]), graph("ab", "c", [1]))

TRAVERSAL_ROWS = [
    ("traverses: different outputs", lambda: traverses(*OTHER_OUTPUT, 1, 1), TraversalError),
    ("report: different outputs", lambda: traversal_report(*OTHER_OUTPUT), TraversalError),
    ("max: different outputs", lambda: max_traversal(*OTHER_OUTPUT), TraversalError),
    ("labels: different outputs", lambda: greedy_label(*OTHER_OUTPUT, 1), TraversalError),
    ("labels: negative k", lambda: greedy_label(*EQUAL, -1), ValueError),
    ("labels: index count", lambda: greedy_label(*EQUAL, 2).k(), 2),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in TRAVERSAL_ROWS],
                         ids=[row[0] for row in TRAVERSAL_ROWS])
def test_traversal_rows(call, expected):
    assert outcome(call) == expected


def test_traverses_figure_case():
    # one output keeping origin 2 and moving to 4 crosses position 3
    s = graph("aaaaa", "aaaaa", (2, 1, 1, 1, 1))
    sp = graph("aaaaa", "aaaaa", (4, 1, 1, 1, 1))
    assert traverses(s, sp, 2, 3)
    assert not traverses(s, sp, 2, 4)


def test_traverses_right_to_left():
    s = graph("aaaaa", "a", (5,))
    sp = graph("aaaaa", "a", (2,))
    assert traverses(s, sp, 5, 3)
    assert traverses(s, sp, 5, 5)
    assert not traverses(s, sp, 5, 2)


def test_no_traversal_on_equal_graphs():
    g = graph("aaaa", "aaa", (1, 3, 4))
    for x in range(1, 5):
        for z in range(1, 5):
            assert not traverses(g, g, x, z)
    assert traversal_report(g, g).max_count == 0


def test_self_traversal():
    s = graph("aaaa", "a", (2,))
    sp = graph("aaaa", "a", (4,))
    assert traverses(s, sp, 2, 2)


def test_out_of_range_positions():
    g = graph("aa", "a", (1,))
    with pytest.raises(TraversalError):
        traverses(g, g, 0, 1)
    with pytest.raises(TraversalError):
        traverses(g, g, 1, 3)


def test_id_rev_ten_is_five(t_id, t_rev):
    caps = RunCaps(20, 80)
    gid = next(iter(run_origin_graphs(t_id, "a" * 10, caps).graphs))
    grev = next(iter(run_origin_graphs(t_rev, "a" * 10, caps).graphs))
    rep = traversal_report(gid, grev)
    assert rep.max_count == 5
    assert max_traversal(gid, grev) == 5


def test_one_two_vs_two_one_three_at_six():
    onetwo = graph("a" * 10, "a" * 15, (1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10))
    twoone = graph("a" * 10, "a" * 15, (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10))
    rep = traversal_report(onetwo, twoone)
    assert rep.max_count == 3
    at6 = max(len(rep.left_to_right[5]), len(rep.right_to_left[5]))
    assert at6 == 3
    assert rep.right_to_left[5] == frozenset({6, 7, 8})


def test_report_counts_sources_once():
    # one source with several crossing outputs counts once per position
    s = graph("aaaa", "aaa", (2, 2, 2))
    sp = graph("aaaa", "aaa", (3, 4, 4))
    rep = traversal_report(s, sp)
    assert rep.left_to_right[1] == frozenset({2})


def test_max_traversal_matches_report_random():
    rng = random.Random(13)
    for _ in range(300):
        s, sp = random_pair(rng)
        assert max_traversal(s, sp) == traversal_report(s, sp).max_count


def test_mirror_swaps_directions():
    rng = random.Random(17)
    for _ in range(100):
        s, sp = random_pair(rng, 6)
        rep = traversal_report(s, sp)
        mrep = traversal_report(mirror(s), mirror(sp))
        n = len(s.input)
        for z in range(1, n + 1):
            flip = {n + 1 - x for x in rep.left_to_right[z - 1]}
            assert mrep.right_to_left[n - z] == frozenset(flip)


def test_greedy_trivial_on_equal():
    g = graph("aaa", "aa", (1, 2))
    got = greedy_label(g, g, 0)
    assert all(not s for s in got.rights + got.lefts)


def test_greedy_id_rev(t_id, t_rev):
    caps = RunCaps(20, 80)
    gid = next(iter(run_origin_graphs(t_id, "a" * 10, caps).graphs))
    grev = next(iter(run_origin_graphs(t_rev, "a" * 10, caps).graphs))
    with pytest.raises(GreedyLabelError):
        greedy_label(grev, gid, 4)
    assign = greedy_label(grev, gid, 5)
    w = assign.to_witness(10)
    assert check_witness(make_Rk(5, base="a"), grev, gid, w)


def test_label_exclusivity_and_soundness_random():
    rng = random.Random(19)
    rk_cache = {}
    for _ in range(250):
        s, sp = random_pair(rng)
        k = max_traversal(s, sp)
        assign = greedy_label(s, sp, k)
        for group in (assign.rights, assign.lefts):
            seen = set()
            for members in group:
                assert not (members & seen)
                seen |= members
        base = tuple(sorted(set(s.input)))
        if (k, base) not in rk_cache:
            rk_cache[(k, base)] = make_Rk(k, base=base)
        assert check_witness(rk_cache[(k, base)], s, sp, assign.to_witness(len(s.input)))


def test_incremental_matches_recompute_random():
    rng = random.Random(23)
    for _ in range(200):
        s, sp = random_pair(rng, 7)
        k = max_traversal(s, sp) + rng.randint(0, 2)
        try:
            a = greedy_label(s, sp, k)
        except GreedyLabelError:
            a = None
        try:
            b = greedy_label_recompute(s, sp, k)
        except GreedyLabelError:
            b = None
        assert a == b


def test_greedy_error_below_requirement():
    # all three sources cross position 2 leftwards
    s = graph("aaaa", "aaa", (2, 3, 4))
    sp = graph("aaaa", "aaa", (1, 1, 1))
    assert max_traversal(s, sp) == 3
    with pytest.raises(GreedyLabelError):
        greedy_label(s, sp, 2)
    assign = greedy_label(s, sp, 3)
    assert check_witness(make_Rk(3, base="a"), s, sp, assign.to_witness(4))


def test_report_table_format():
    s = graph("aaa", "aa", (1, 2))
    sp = graph("aaa", "aa", (2, 3))
    table = traversal_report(s, sp).table()
    assert table.splitlines()[0].startswith("1:")
