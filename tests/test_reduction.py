import dataclasses
import hashlib
import itertools
import random

import pytest

from origami.reduction import (TuringMachine, TileSet, MachineError, build_tiles, history,
                               tape_probe, check_domino_lemma, check_domino_sweep,
                               build_Tdown, build_Tup, build_Tup_prime, build_Tdown_prime,
                               halt2, grow, SEP)
from origami.transducers import (RunCaps, MatchIndex, run_origin_graphs, enumerate_matching_graphs,
                                 OriginGraph)
from origami.traversal import traversal_report
from origami.resync import make_shift, make_identity
from origami.containment import contains_upto, traversal_profile

from top_row_sweep import first_top_row_violation


@pytest.fixture(scope="module")
def h2():
    return halt2()


@pytest.fixture(scope="module")
def h2_tiles(h2):
    return build_tiles(h2)


EXAMPLE_RUN = "q0#q0B#aq1#aq1B#q2ab#"


def test_machine_validation():
    with pytest.raises(MachineError):
        TuringMachine({"q"}, {"a"}, "B", (), "q", "q")
    with pytest.raises(MachineError):
        TuringMachine({"q"}, {"B"}, "B",
                      ((("q", "B"), ("q", "B", "R")), (("q", "B"), ("q", "B", "L"))),
                      "q", "q")


def test_tiles_copy_tiles_present(h2_tiles):
    copies = {(t.top, t.bottom) for t in h2_tiles.tiles if t.kind == "copy"}
    assert copies == {(("B",), ("B",)), (("a",), ("a",)), (("b",), ("b",)),
                      ((SEP,), (SEP,))}


def test_right_tile_from_rule(h2_tiles):
    rights = {(t.top, t.bottom) for t in h2_tiles.tiles if t.kind == "right"}
    assert rights == {(("q0", "B"), ("a", "q1"))}


def test_left_tiles_from_rule(h2_tiles):
    lefts = {(t.top, t.bottom) for t in h2_tiles.tiles if t.kind == "left"}
    assert (("a", "q1", "B"), ("q2", "a", "b")) in lefts
    assert len(lefts) == 3
    exp = {(t.top, t.bottom) for t in h2_tiles.tiles if t.kind == "left-expansion"}
    assert exp == {((SEP, "q1", "B"), (SEP, "q2", "B", "b"))}


def test_right_expansion_for_every_state(h2_tiles):
    exp = {t.top for t in h2_tiles.tiles if t.kind == "right-expansion"}
    assert exp == {("q0", SEP), ("q1", SEP), ("q2", SEP)}


def test_no_start_tile(h2_tiles):
    assert all(t.top != () for t in h2_tiles.tiles)


def test_history_matches_example(h2):
    word, configs, status = history(h2, 50, 50)
    assert "".join(word) == EXAMPLE_RUN
    assert status == "halted"


def test_history_immediate_halt():
    m = TuringMachine({"q0", "qf"}, {"B"}, "B", (), "q0", "qf")
    word, configs, status = history(m, 10, 10)
    assert "".join(word) == "q0#"
    assert status == "halted"


def test_history_right_runner_growth():
    word, configs, status = history(grow(), 12, 50)
    assert status == "still-running"
    # manual simulation: expansion then move, tape grows one cell per move
    assert "".join(configs[0]) == "q0#"
    assert "".join(configs[1]) == "q0B#"
    assert "".join(configs[2]) == "aq0#"
    assert "".join(configs[3]) == "aq0B#"
    assert "".join(configs[4]) == "aaq0#"


def test_tape_probe_values(h2):
    assert tape_probe(TuringMachine({"q0", "qf"}, {"B"}, "B", (), "q0", "qf"), 5) == 1
    assert tape_probe(h2, 2) == 3
    assert tape_probe(grow(), 10) == 11


def test_domino_lemma_example_sequence(h2_tiles):
    by_pair = {(t.top, t.bottom): t.index for t in h2_tiles.tiles}
    lam = [
        by_pair[(("q0", SEP), ("q0", "B", SEP))],
        by_pair[(("q0", "B"), ("a", "q1"))],
        by_pair[((SEP,), (SEP,))],
        by_pair[(("a",), ("a",))],
        by_pair[(("q1", SEP), ("q1", "B", SEP))],
        by_pair[(("a", "q1", "B"), ("q2", "a", "b"))],
        by_pair[((SEP,), (SEP,))],
    ]
    top = h2_tiles.top_word(lam)
    bottom = h2_tiles.bottom_word(lam)
    assert "".join(bottom) == EXAMPLE_RUN
    assert tuple(bottom[:len(top)]) == tuple(top)
    res = check_domino_lemma(h2_tiles, lam)
    assert res.ok and res.premise_holds


def test_domino_lemma_vacuous(h2_tiles):
    copy_a = next(t.index for t in h2_tiles.tiles if t.top == ("a",))
    res = check_domino_lemma(h2_tiles, [copy_a])
    assert res.ok and not res.premise_holds


def test_domino_sweep_small(h2_tiles):
    assert check_domino_sweep(h2_tiles, 3) is None
    # agrees with the single-sequence checker on a two-tile sample
    idx = h2_tiles.indexes()[:2]
    for lam in itertools.product(idx, repeat=3):
        assert check_domino_lemma(h2_tiles, lam).ok


def test_domino_unknown_tile(h2_tiles):
    with pytest.raises(MachineError):
        check_domino_lemma(h2_tiles, ["nope"])


def test_domino_prefix_gap_after_left_moves(h2_tiles):
    """The prefix form of the domino property genuinely breaks at length 6.

    A copy tile may consume the letter standing before the head instead of
    gluing it into the left tile; the top-row prefix premise still holds
    because the divergence sits one configuration ahead in the bottom row,
    which then stops being a history prefix.  Right-only machines are
    immune: no copy tile carries a state marker.
    """
    assert check_domino_sweep(h2_tiles, 5) is None
    viol = check_domino_sweep(h2_tiles, 6)
    assert viol is not None
    kinds = [h2_tiles.by_index()[i].kind for i in viol]
    assert "copy" in kinds
    res = check_domino_lemma(h2_tiles, viol)
    assert not res.ok and res.premise_holds
    assert check_domino_sweep(build_tiles(grow()), 6) is None


def test_domino_top_row_form(h2_tiles):
    """The top-row form holds where the bottom-row form breaks, and it
    catches a tile whose bottom row writes the wrong letter."""
    assert first_top_row_violation(h2_tiles, 8) is None
    assert first_top_row_violation(build_tiles(grow()), 10) is None
    wrong = TileSet(h2_tiles.machine, tuple(
        dataclasses.replace(t, bottom=("b", "q1")) if t.kind == "right" else t
        for t in h2_tiles.tiles))
    assert first_top_row_violation(wrong, 3) is None
    assert first_top_row_violation(wrong, 6) == ("t6", "t5", "t4", "t3")


def test_tdown_unique_output(h2_tiles):
    tdown = build_Tdown(h2_tiles)
    by_pair = {(t.top, t.bottom): t.index for t in h2_tiles.tiles}
    lam = (by_pair[(("q0", SEP), ("q0", "B", SEP))], by_pair[(("q0", "B"), ("a", "q1"))])
    res = run_origin_graphs(tdown, lam, RunCaps(30, 40))
    assert len(res.graphs) == 1
    g = next(iter(res.graphs))
    assert g.output == h2_tiles.bottom_word(lam)
    assert g.orig == (1, 1, 1, 1, 1, 2, 2)


def test_tup_bad_prefix_sets(h2_tiles):
    tup = build_Tup(h2_tiles)
    gamma = h2_tiles.gamma()
    # W for the right tile (q0 B): short non-prefixes, not the genuine ones
    tile = next(t for t in h2_tiles.tiles if t.top == ("q0", "B"))
    ws = {out for (p, a, out, q) in tup.transitions
          if p == "p0" and a == tile.index and q == "p_fail"}
    expect = set()
    for ln in (1, 2):
        for w in itertools.product(sorted(gamma), repeat=ln):
            if tuple(w) != ("q0", "B")[:ln]:
                expect.add(w)
    assert ws == expect
    assert ("q0",) not in ws and () not in ws and ("q0", "a") in ws and (SEP,) in ws


def test_updown_two_traversal(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    by_pair = {(t.top, t.bottom): t.index for t in h2_tiles.tiles}
    lam = (
        by_pair[(("q0", SEP), ("q0", "B", SEP))],
        by_pair[(("q0", "B"), ("a", "q1"))],
        by_pair[((SEP,), (SEP,))],
        by_pair[(("a",), ("a",))],
        by_pair[(("q1", SEP), ("q1", "B", SEP))],
        by_pair[(("a", "q1", "B"), ("q2", "a", "b"))],
        by_pair[((SEP,), (SEP,))],
    )
    vlam = h2_tiles.bottom_word(lam)
    gdown = next(iter(run_origin_graphs(tdown, lam, RunCaps(30, 40)).graphs))
    ups = [OriginGraph(lam, vlam, o) for o in enumerate_matching_graphs(tup, lam, vlam)]
    assert len(ups) == 1  # the run avoiding the failure sink is the only match
    rep = traversal_report(ups[0], gdown)
    at4 = max(len(rep.left_to_right[3]), len(rep.right_to_left[3]))
    assert at4 == 2


def test_classical_containment_down_in_up(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    caps = RunCaps(2 + 4 * 2, 40)
    for lam in itertools.product(h2_tiles.indexes(), repeat=2):
        g = next(iter(run_origin_graphs(tdown, lam, caps).graphs))
        assert next(enumerate_matching_graphs(tup, lam, g.output), None) is not None


def test_shift_containment_small(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    shift = make_shift(5, base=tuple(sorted(tdown.input_alphabet)))
    verdict = contains_upto(tdown, tup, shift, 3, RunCaps(2 + 4 * 3, 60))
    assert verdict.holds


def reduction_caps(n):
    return RunCaps(2 + 4 * n, 15 * n)


def shift_on(tdown, k):
    return make_shift(k, base=tuple(sorted(tdown.input_alphabet)))


def test_halt2_shift2_fails_at_length_five(h2_tiles):
    # the least failing input found by the per-input sweep, which took 19 s
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    verdict = contains_upto(tdown, tup, shift_on(tdown, 2), 5, reduction_caps(5))
    cex = verdict.counterexample
    assert (verdict.status, cex.sigma_p.input, cex.reason, verdict.pruned) == \
        ("fails", ("t6", "t5", "t4", "t1", "t1"), "no-accepted-partner", False)


def test_halt2_shift5_holds_for_every_length(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    stats = {}
    verdict = contains_upto(tdown, tup, shift_on(tdown, 5), 9, reduction_caps(9), stats=stats)
    assert verdict.holds and not verdict.pruned
    assert verdict.saturated_at == 9 and stats["layers"][-1] == 0


def test_grow_shift3_fails_at_length_eleven():
    gt = build_tiles(grow())
    tdown, tup = build_Tdown(gt), build_Tup(gt)
    r = shift_on(tdown, 3)
    verdict = contains_upto(tdown, tup, r, 11, reduction_caps(11))
    u = ("t5", "t4", "t3", "t2", "t5", "t2", "t4", "t3", "t2", "t1", "t1")
    cex = verdict.counterexample
    assert (verdict.status, cex.sigma_p.input, cex.reason) == ("fails", u, "no-accepted-partner")
    # its length-10 prefix has an accepted partner, under the gamma table
    (sigma_p,) = run_origin_graphs(tdown, u[:10], reduction_caps(10)).graphs
    cache = {}

    def fill(h, y):
        got = cache[(h, y)] = r.gamma_holds_dfa(sigma_p.input, (), h, y)
        return got

    assert MatchIndex(tup).search(sigma_p.input, sigma_p.output, (cache, sigma_p.orig, fill))


def test_binding_caps_stay_on_the_frontier(h2_tiles):
    # criterion 6's pair with an output cap that cuts T_down's runs: the
    # frontier counts t1's steps and output, and pruned comes from t1's
    # sweep; a bound that cuts runs proves nothing past the last layer
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    stats = {}
    verdict = contains_upto(tdown, tup, shift_on(tdown, 5), 3, RunCaps(6, 90), stats=stats)
    assert stats["route"] == "frontier"
    assert (verdict.status, verdict.pruned, verdict.saturated_at) == ("holds-on-sweep", True, None)


# contains_upto(T_down, T_up, shift(k), n, caps) on the frontier: (status,
# counterexample as (input, output, origins, reason), pruned, saturated_at,
# new macro-states per layer), recorded from an earlier implementation of
# the frontier.  GROW runs each shift(k) up to its least failing length.
FRONTIER_PINS = [
    ("halt2", 1, 4, (18, 60),
     ("fails", (("t6", "t1", "t1"), ("q0", "#", "q0", "B", "#", "B", "B"), (1, 1, 1, 1, 1, 2, 3),
                "no-accepted-partner"), False, None, [12, 6])),
    ("halt2", 3, 4, (18, 60), ("holds-on-sweep", None, False, None, [12, 13, 12, 12])),
    ("halt2", 4, 4, (18, 60), ("holds-on-sweep", None, False, None, [12, 13, 12, 12])),
    ("halt2", 5, 4, (18, 60), ("holds-on-sweep", None, False, None, [12, 13, 12, 12])),
    ("halt2", 5, 6, (26, 90), ("holds-on-sweep", None, False, None, [12, 13, 12, 12, 12, 12])),
    ("grow", 0, 2, (10, 30),
     ("fails", (("t1", "t1"), ("q0", "#", "B", "B"), (1, 1, 1, 2), "no-accepted-partner"), False,
      None, [1])),
    ("grow", 1, 3, (14, 45),
     ("fails", (("t5", "t1", "t1"), ("q0", "#", "q0", "B", "#", "B", "B"), (1, 1, 1, 1, 1, 2, 3),
                "no-accepted-partner"), False, None, [5, 2])),
    ("grow", 2, 5, (22, 75),
     ("fails", (("t5", "t4", "t3", "t1", "t1"),
                ("q0", "#", "q0", "B", "#", "a", "q0", "#", "B", "B"),
                (1, 1, 1, 1, 1, 2, 2, 3, 4, 5), "no-accepted-partner"), False, None, [5, 6, 5, 2])),
    ("grow", 3, 11, (46, 165),
     ("fails", (("t5", "t4", "t3", "t2", "t5", "t2", "t4", "t3", "t2", "t1", "t1"),
                ("q0", "#", "q0", "B", "#", "a", "q0", "#", "a", "q0", "B", "#", "a", "a", "q0",
                 "#", "a", "B", "B"),
                (1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 7, 8, 9, 10, 11),
                "no-accepted-partner"), False, None, [5, 6, 5, 5, 5, 5, 5, 5, 5, 2])),
]


@pytest.fixture(scope="module")
def grow_tiles():
    return build_tiles(grow())


def check_frontier_pin(tdown, tup, k, n, caps, want):
    stats = {}
    verdict = contains_upto(tdown, tup, shift_on(tdown, k), n, RunCaps(*caps), stats=stats)
    cex = verdict.counterexample
    if cex is not None:
        g = cex.sigma_p
        cex = (g.input, g.output, g.orig, cex.reason)
    assert stats["route"] == "frontier"
    assert (verdict.status, cex, verdict.pruned, verdict.saturated_at, stats["layers"]) == want


@pytest.mark.parametrize("machine, k, n, caps, want", FRONTIER_PINS)
def test_reduction_frontier_pinned(h2_tiles, grow_tiles, machine, k, n, caps, want):
    tiles = h2_tiles if machine == "halt2" else grow_tiles
    check_frontier_pin(build_Tdown(tiles), build_Tup(tiles), k, n, caps, want)


def test_reduction_frontier_pins_in_any_call_order(h2_tiles, grow_tiles):
    # the calls on one pair of transducer objects share its product: the
    # pinned answers must not depend on which calls came before
    tiles = {"halt2": h2_tiles, "grow": grow_tiles}
    pairs = {m: (build_Tdown(t), build_Tup(t)) for m, t in tiles.items()}
    shuffled = list(FRONTIER_PINS)
    random.Random(16).shuffle(shuffled)
    for order in (FRONTIER_PINS[::-1], shuffled):
        for (machine, k, n, caps, want) in order:
            check_frontier_pin(*pairs[machine], k, n, caps, want)
    for (machine, k, n, caps, want) in shuffled:
        tdown, tup = pairs[machine]
        # a profile under the pin's caps, against one on objects never used
        fresh = (build_Tdown(tiles[machine]), build_Tup(tiles[machine]))
        want_profile = traversal_profile(*fresh, 3, RunCaps(*caps)).values
        assert traversal_profile(tdown, tup, 3, RunCaps(*caps)).values == want_profile
        check_frontier_pin(tdown, tup, k, n, caps, want)
        other = pairs["grow" if machine == "halt2" else "halt2"]
        contains_upto(*other, shift_on(other[0], 1), 2, reduction_caps(2))
        check_frontier_pin(tdown, tup, k, n, caps, want)


# T_up's partners for T_down graphs, in MatchIndex.search's order, recorded
# from an earlier implementation of the index: (input, output, the origin
# tuples, or their count and the sha256 of their repr)
MATCH_PINS = [
    (("t5", "t4", "t3"), ("q0", "#", "a", "q1", "#", "b"),
     [(1, 1, 3, 3, 3, 3), (1, 1, 2, 3, 3, 3), (1, 1, 2, 2, 3, 3), (1, 1, 2, 2, 2, 3),
      (1, 1, 2, 2, 2, 2)]),
    (("t6", "t7", "t1"), ("q0", "#", "q0", "B", "#", "q1", "B", "#", "B"),
     [(1, 1, 2, 3, 3, 3, 3, 3, 3), (1, 1, 2, 2, 3, 3, 3, 3, 3)]),
    (("t6", "t10", "t1"), ("q0", "#", "q0", "B", "#", "q2", "a", "b", "B"),
     [(1, 1, 2, 3, 3, 3, 3, 3, 3), (1, 1, 2, 2, 3, 3, 3, 3, 3), (1, 1, 2, 2, 2, 3, 3, 3, 3)]),
    (("t10", "t12", "t12"), ("q0", "#", "q2", "a", "b", "#", "q2", "B", "b", "#", "q2", "B", "b"),
     (36, "0214d4d2e9ba4affd66bbd556c32c1ccad050ec01d6aef566db8ef26e99b5c67")),
    (("t12", "t12", "t12"),
     ("q0", "#", "#", "q2", "B", "b", "#", "q2", "B", "b", "#", "q2", "B", "b"),
     (39, "c370f264b077b5fe3afefe76ce80a85a7ee48d7d805f0844377db46c1e6f1701")),
]


def test_halt2_partner_order_pinned(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    index = MatchIndex(tup)
    for u, v, want in MATCH_PINS:
        assert next(g for g in run_origin_graphs(tdown, u, RunCaps(14, 45)).graphs
                    if g.output == v)
        got = list(enumerate_matching_graphs(tup, u, v, index))
        if isinstance(want, tuple):
            got = (len(got), hashlib.sha256(repr(got).encode()).hexdigest())
        assert got == want, u


def test_tdown_prime_union_semantics(h2_tiles):
    tdown, tup = build_Tdown(h2_tiles), build_Tup(h2_tiles)
    tdp = build_Tdown_prime(h2_tiles)
    caps = RunCaps(5, 25)
    lam = (h2_tiles.indexes()[0],)
    lhs = run_origin_graphs(tdp, lam, caps).graphs
    rhs = run_origin_graphs(tdown, lam, caps).graphs | run_origin_graphs(tup, lam, caps).graphs
    assert lhs == rhs


def test_tup_in_identity_of_tdown_prime(h2_tiles):
    tup = build_Tup(h2_tiles)
    tdp = build_Tdown_prime(h2_tiles)
    base = tuple(sorted(tup.input_alphabet))
    verdict = contains_upto(tup, tdp, make_identity(base=base), 1, RunCaps(4, 14))
    assert verdict.holds


def test_tup_prime_first_position_branch(h2_tiles):
    tupp = build_Tup_prime(h2_tiles)
    lam = (h2_tiles.indexes()[0],) * 2
    res = run_origin_graphs(tupp, lam, RunCaps(3, 16))
    # the new branch emits any short word with every origin on letter one
    outs = {(g.output, g.orig) for g in res.graphs}
    assert (("q2", "q2"), (1, 1)) in outs or any(
        g.orig == (1,) * len(g.output) and len(g.output) == 2 for g in res.graphs)


def test_grow_profile_growth(h2_tiles):
    gt = build_tiles(grow())
    gdown, gup = build_Tdown(gt), build_Tup(gt)
    profile = traversal_profile(gdown, gup, 5, RunCaps(2 + 4 * 5, 70))
    vals = [profile.values[n] for n in range(1, 6)]
    assert vals == [0, 1, 2, 2, 3]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > vals[0]


def test_tiles_table_rendering(h2_tiles):
    table = h2_tiles.table()
    lines = table.splitlines()
    assert len(lines) == 3
    assert "q0B#" in lines[2]
