import functools
import gc
import itertools
import math
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from origami import containment, corpus, transducers
from origami.automata import StepDfa
from origami.mso import First, compile_dfa, parse_formula
from origami.transducers import (RunCaps, OriginGraph, OneWayTransducer, EPS,
                                 enumerate_matching_graphs, origin_equivalent_upto,
                                 run_origin_graphs, words_upto)
from origami.traversal import GreedyLabelError, greedy_label, max_traversal
from origami.reduction import grow, halt2, build_tiles, build_Tdown, build_Tup
from origami.resync import (Resynchronizer, ResyncError, make_identity, make_pm1, make_Rk,
                            make_shift, make_param_example, make_universal, compose,
                            pair_in_resync, check_witness, make_first_to_last, make_first,
                            make_block, ExtendedResynchronizer, bounded_by, is_bounded)
from origami.containment import (Counterexample, contains_upto, resync_search,
                                 traversal_profile, report_json, _ext_precheck_m0)
from origami.frontier import _EMPTY, _Frontier, _antichains

from random_one_way import LETTERS, STATES, machine_pairs, partners, stale_step_repro, variants
from random_two_way import every_run_graphs, rebuilt, two_way_pairs


def r_first(base=("a",)):
    return Resynchronizer((), First("x"), base=base, name="first-source")


def rk_membership_via_traversal(k):
    """Membership test for R_k using its traversal characterization.

    A pair belongs to [[R_k]] exactly when its per-direction traversal is
    at most k; accepted pairs return the greedy labeling as the witness
    (re-verified against gamma).  The reference that the automaton route
    and ``resync_search`` are checked against.
    """
    rk_cache = {}

    def check(sigma, sigma_p):
        if max_traversal(sigma, sigma_p) > k:
            return None
        try:
            assign = greedy_label(sigma, sigma_p, k)
        except GreedyLabelError:
            return None
        w = assign.to_witness(len(sigma.input))
        base = tuple(sorted(set(sigma.input))) or ("a",)
        if base not in rk_cache:
            rk_cache[base] = make_Rk(k, base=base)
        return w if check_witness(rk_cache[base], sigma, sigma_p, w) else None

    return check


def test_last_in_first_to_last_of_first(t_last, t_first):
    caps = RunCaps(5, 40)
    verdict = contains_upto(t_last, t_first, make_first_to_last(), 4, caps)
    assert verdict.holds


def test_slow_in_first_of_fast(t_slow, t_fast, caps):
    verdict = contains_upto(t_slow, t_fast, r_first(), 4, caps)
    assert verdict.holds


def test_identity_reflexivity_all_corpus(caps):
    small = RunCaps(6, 40)
    for t in corpus.all_corpus():
        base = tuple(sorted(t.input_alphabet))
        verdict = contains_upto(t, t, make_identity(base=base), 3, small)
        assert verdict.holds, t.name


def test_id_not_in_pm1_of_rev(t_id, t_rev, caps):
    verdict = contains_upto(t_id, t_rev, make_pm1(base=("a",)), 4, caps)
    assert not verdict.holds
    # the identity-sized shift is forced everywhere, so even a^1 fails
    assert verdict.counterexample.sigma_p.input == ("a",)
    assert verdict.counterexample.reason == "no-accepted-partner"


def test_fast_not_in_rk_of_slow(t_fast, t_slow, caps):
    for k in range(0, 4):
        verdict = contains_upto(t_fast, t_slow, make_Rk(k, base=("a",)), 6, caps)
        assert not verdict.holds
        cex = verdict.counterexample
        assert len(cex.sigma_p.input) == k + 2


def test_counterexample_recheckable(t_fast, t_slow, caps):
    rk = make_Rk(1, base=("a",))
    verdict = contains_upto(t_fast, t_slow, rk, 6, caps)
    cex = verdict.counterexample.sigma_p
    from origami.transducers import enumerate_matching_graphs
    partners = [OriginGraph(cex.input, cex.output, o)
                for o in enumerate_matching_graphs(t_slow, cex.input, cex.output)]
    assert partners
    assert all(pair_in_resync(rk, p, cex) is None for p in partners)


def test_record_mode_soundness(t_slow, t_fast, caps):
    verdict = contains_upto(t_slow, t_fast, r_first(), 3, caps, record=True)
    assert verdict.holds and verdict.pairs
    for (sigma, sigma_p, witness) in verdict.pairs:
        assert check_witness(r_first(), sigma, sigma_p, witness)


def test_profile_id_rev(t_id, t_rev):
    caps = RunCaps(20, 100)
    profile = traversal_profile(t_id, t_rev, 10, caps)
    assert [profile.values[n] for n in range(1, 11)] == [n // 2 for n in range(1, 11)]
    assert profile.values[10] == 5


def test_profile_onetwo_twoone(t_one_two, t_two_one):
    caps = RunCaps(20, 100)
    profile = traversal_profile(t_one_two, t_two_one, 10, caps)
    assert profile.values[10] == 3
    assert not profile.approximate


def profile_oracle(t1, t2, max_len, caps):
    """profile(n) by brute force: every t2 partner of every t1 graph on
    every input of length n, the least max traversal per graph, the
    largest of those per length.  Partners come from run_origin_graphs,
    for a one-way t2 under caps that admit every distinct partner, and for
    a two-way t2 from the every-path oracle."""
    values = {}
    for u in words_upto(t1.input_alphabet, max_len):
        for sp in run_origin_graphs(t1, u, caps).graphs:
            if isinstance(t2, OneWayTransducer):
                found = [OriginGraph(u, sp.output, o) for o in partners(t2, u, sp.output)]
            else:
                found = [g for g in every_run_graphs(t2, u, caps) if g.output == sp.output]
            least = min((max_traversal(g, sp) for g in found), default=math.inf)
            values[len(u)] = max(values.get(len(u), 0), least)
    return {n: values.get(n, 0) for n in range(1, max_len + 1)}


def identity_oracle(t1, t2, max_len, caps):
    """(status, counterexample) of contains_upto(t1, t2, identity), from
    the every-path oracle's graph sets of two-way machines."""
    for u in words_upto(t1.input_alphabet, max_len):
        found = every_run_graphs(t2, u, caps)
        for sp in sorted(every_run_graphs(t1, u, caps), key=OriginGraph.sort_key):
            if sp not in found:
                written = any(g.output == sp.output for g in found)
                return "fails", Counterexample(sp, "no-accepted-partner" if written
                                               else "no-partner")
    return "holds-on-sweep", None


def sweep_counts(t1, t2, max_len, caps, cex):
    """The sweep counters of contains_upto, which stops at the
    counterexample cex, and of traversal_profile, which searches no input
    whose length has the value inf already, from t1's graphs and the
    every-path oracle's; t2 runs on no input when it equals t1."""
    counts = [{"inputs": 0, "graphs": 0, "t2_runs": 0} for _ in range(2)]
    contains, profile = counts
    runs = 0 if t2 == t1 else 1
    stopped, unbounded = False, set()
    for u in words_upto(t1.input_alphabet, max_len):
        graphs = sorted(run_origin_graphs(t1, u, caps).graphs, key=OriginGraph.sort_key)
        if not stopped:
            contains["inputs"] += 1
            contains["t2_runs"] += runs if graphs else 0
            stopped = cex is not None and cex.sigma_p.input == u
            contains["graphs"] += graphs.index(cex.sigma_p) + 1 if stopped else len(graphs)
        profile["inputs"] += 1
        if graphs and len(u) not in unbounded:
            profile["t2_runs"] += runs
            outputs = {g.output for g in every_run_graphs(t2, u, caps)}
            for sp in graphs:
                profile["graphs"] += 1
                if sp.output not in outputs:
                    unbounded.add(len(u))
                    break
    return counts


@given(two_way_pairs(), st.integers(3, 9), st.sampled_from(("drawn", "same", "copy")))
def test_two_way_partners_match_every_path_oracle(pair, steps, t2_is):
    # t2 as drawn, t1 itself, or an equal copy of t1: the last two read
    # t1's own graphs as partners and run t2 on no input
    t1, t2 = pair
    t2 = {"drawn": t2, "same": t1, "copy": rebuilt(t1)}[t2_is]
    caps = RunCaps(3, steps)
    stats, profile_stats = {}, {}
    verdict = contains_upto(t1, t2, make_identity(("a", "b")), 3, caps, stats=stats)
    assert (verdict.status, verdict.counterexample) == identity_oracle(t1, t2, 3, caps)
    profile = traversal_profile(t1, t2, 3, caps, stats=profile_stats)
    assert profile.values == profile_oracle(t1, t2, 3, caps)
    if t2 == t1:
        assert verdict.holds
    assert stats["route"] == profile_stats["route"] == "sweep"
    counters = [{k: got[k] for k in ("inputs", "graphs", "t2_runs")}
                for got in (stats, profile_stats)]
    assert counters == sweep_counts(t1, t2, 3, caps, verdict.counterexample)


def t_skip_then_pad():
    """Reads the first letter silently into a sink that skips the rest of
    the input and emits anything, so every origin lies past position 1."""
    return OneWayTransducer(
        states={"s", "f"},
        input_alphabet={"a"},
        output_alphabet={"a"},
        transitions=(("s", "a", (), "f"), ("f", "a", (), "f"), ("f", EPS, ("a",), "f")),
        initial={"s"},
        final={"f"},
        name="T_skip_then_pad",
    )


def test_profile_matches_bruteforce_oracle(t_id, t_rev, t_one_two, t_two_one,
                                           t_fast, t_slow):
    gt = build_tiles(grow())
    cases = [
        (t_fast, t_skip_then_pad(), 4, RunCaps(6, 40)),
        (build_Tdown(gt), build_Tup(gt), 4, RunCaps(2 + 4 * 4, 70)),
        (t_id, t_rev, 6, RunCaps(12, 60)),
        (t_one_two, t_two_one, 6, RunCaps(12, 60)),
        (t_two_one, t_one_two, 6, RunCaps(12, 60)),
        (t_fast, t_slow, 5, RunCaps(10, 60)),
    ]
    for (t1, t2, max_len, caps) in cases:
        assert traversal_profile(t1, t2, max_len, caps).values == \
            profile_oracle(t1, t2, max_len, caps), (t1.name, t2.name)


def test_sink_padding_respects_gamma(t_fast):
    # t_fast puts every origin on position 1; on inputs longer than one
    # letter the skip-then-pad partner can reach position 2 at best
    skip = t_skip_then_pad()
    assert contains_upto(t_fast, skip, make_shift(1, base=("a",)), 4, RunCaps(4, 30)).holds
    verdict = contains_upto(t_fast, skip, make_shift(0, base=("a",)), 4, RunCaps(4, 30))
    assert verdict.counterexample.sigma_p.input == ("a", "a")


def test_verdict_follows_a_gamma_that_reads_letters(t_first):
    # gamma reads the source letter, so whether it holds depends on the
    # input and not on the positions alone
    r = Resynchronizer((), parse_formula("x = y & a(x)"), base=("a", "b"), name="a-stays")
    verdict = contains_upto(t_first, t_first, r, 2, RunCaps(2, 20))
    assert verdict.counterexample.sigma_p.input == ("b",)


def test_verdict_follows_a_gamma_that_reads_the_input_end(t_first):
    # last(y) turns false when a letter is appended: gamma holds at
    # (x, y) = (1, 1) on "a" but not on "aa"
    r = Resynchronizer((), parse_formula("x = y & last(y)"), base=("a", "b"), name="stay-last")
    verdict = contains_upto(t_first, t_first, r, 2, RunCaps(2, 20))
    assert verdict.counterexample.sigma_p.input == ("a", "a")


def test_profile_reflexive_zero(t_one_two, caps):
    profile = traversal_profile(t_one_two, t_one_two, 4, caps)
    assert all(v == 0 for v in profile.values.values())


def test_profile_inf_when_no_partner(t_fast, t_id, caps):
    # different graph--pair structure: t_fast emits on a^1 outputs t_id never has
    profile = traversal_profile(t_fast, t_id, 2, RunCaps(4, 30))
    assert math.inf in profile.values.values()


def test_search_slow_fast(t_slow, t_fast, caps):
    result = resync_search(t_slow, t_fast, 2, 5, RunCaps(10, 60))
    assert result.found and result.k == 1


def test_search_reflexive_zero(t_one_two, caps):
    result = resync_search(t_one_two, t_one_two, 2, 4, RunCaps(8, 40))
    assert result.found and result.k == 0


def test_search_not_found_with_growing_profile(t_one_two, t_two_one):
    caps = RunCaps(24, 110)
    result = resync_search(t_one_two, t_two_one, 3, 11, caps)
    assert not result.found
    vals = [result.profile.values[n] for n in range(1, 12)]
    assert vals[-1] == 4
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_fast_rk_membership_matches_generic(t_fast, t_slow):
    caps = RunCaps(8, 40)
    for k in (0, 1, 2):
        fast = contains_upto(t_fast, t_slow, make_Rk(k, base=("a",)), 4, caps,
                             membership=rk_membership_via_traversal(k))
        slow = contains_upto(t_fast, t_slow, make_Rk(k, base=("a",)), 4, caps)
        assert fast.status == slow.status
        if fast.counterexample:
            assert fast.counterexample.sigma_p == slow.counterexample.sigma_p


def test_theorem_coherence_on_sweeps(t_slow, t_fast, t_id, t_rev, t_one_two, t_two_one):
    # the search reads the profile; the sweep under R_k, with membership by
    # the traversal characterization and the greedy witness, must agree
    cases = [
        (t_slow, t_fast, RunCaps(8, 40), 4),
        (t_id, t_rev, RunCaps(8, 60), 4),
        (t_one_two, t_two_one, RunCaps(10, 50), 5),
    ]
    for (t1, t2, caps, max_len) in cases:
        least = None
        for k in range(0, 4):
            verdict = contains_upto(t1, t2, make_Rk(k, base=("a",)), max_len, caps,
                                    membership=rk_membership_via_traversal(k))
            if verdict.holds and least is None:
                least = k
            result = resync_search(t1, t2, k, max_len, caps)
            assert result.found == verdict.holds, (t1.name, t2.name, k)
            if result.found:
                assert result.k == least
                assert report_json(result.verdict) == report_json(verdict)


def test_transitivity_carrier(t_slow, t_fast, caps):
    # T_slow in R_first(T_fast), T_fast in Id(T_fast): the composite relates
    # T_slow to T_fast as well
    r1 = r_first()
    r2 = make_identity(base=("a",))
    assert contains_upto(t_slow, t_fast, r1, 3, caps).holds
    assert contains_upto(t_fast, t_fast, r2, 3, caps).holds
    composite = compose(r1, r2)
    assert contains_upto(t_slow, t_fast, composite, 3, caps).holds


def test_verdict_json_is_deterministic(t_slow, t_fast, caps):
    a = report_json(contains_upto(t_slow, t_fast, r_first(), 3, caps))
    b = report_json(contains_upto(t_slow, t_fast, r_first(), 3, caps))
    assert a == b and '"status"' in a


def test_unbounded_growth_heuristic(t_id, t_rev):
    profile = traversal_profile(t_id, t_rev, 9, RunCaps(18, 90))
    # id/rev rises at every second length, a steady pace
    assert profile.unbounded_growth_evidence()
    values = {n: n for n in range(1, 7)}
    from origami.containment import TraversalProfile
    assert TraversalProfile(values, False, 6).unbounded_growth_evidence()


def growth_pairs():
    halt2_tiles, grow_tiles = build_tiles(halt2()), build_tiles(grow())
    return {"id/rev": (corpus.t_id(), corpus.t_rev()),
            "one-two/two-one": (corpus.t_one_two(), corpus.t_two_one()),
            "fast/slow": (corpus.t_fast(), corpus.t_slow()),
            "slow/fast": (corpus.t_slow(), corpus.t_fast()),
            "HALT2": (build_Tdown(halt2_tiles), build_Tup(halt2_tiles)),
            "GROW": (build_Tdown(grow_tiles), build_Tup(grow_tiles))}


# (pair, max length, profile from length 1, growth evidence)
GROWTH_PINS = [
    ("id/rev", 9, [0, 1, 1, 2, 2, 3, 3, 4, 4], True),
    ("id/rev", 10, [0, 1, 1, 2, 2, 3, 3, 4, 4, 5], True),
    ("one-two/two-one", 10, [0, 1, 1, 1, 2, 2, 2, 3, 3, 3], True),
    ("fast/slow", 8, [0, 1, 2, 3, 4, 5, 6, 7], True),
    ("slow/fast", 8, [0, 1, 1, 1, 1, 1, 1, 1], False),
    # rises at 2, 3 and 5: the pace slows, as a bounded profile's does
    ("HALT2", 6, [0, 1, 2, 2, 3, 3], False),
    ("HALT2", 8, [0, 1, 2, 2, 3, 3, 3, 3], False),
    ("GROW", 10, [0, 1, 2, 2, 3, 3, 3, 3, 3, 3], False),
    ("GROW", 16, [0, 1, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4], False),
]


def test_growth_evidence_pinned():
    pairs = growth_pairs()
    for name, n, values, flag in GROWTH_PINS:
        caps = RunCaps(2 + 4 * n, 20 + 12 * n)
        profile = traversal_profile(*pairs[name], n, caps)
        assert [profile.values[k] for k in range(1, n + 1)] == values, name
        assert profile.unbounded_growth_evidence() == flag, (name, n)
    from origami.containment import TraversalProfile
    assert TraversalProfile({n: n for n in range(1, 7)}, False, 6).unbounded_growth_evidence()
    # a rise to or from inf is no rise
    steps = {1: 0, 2: 1, 3: 2, 4: math.inf, 5: 3, 6: 4}
    assert not TraversalProfile(steps, False, 6).unbounded_growth_evidence()


def test_extended_precheck_without_parameters():
    # alpha, beta and delta read sigma' only; each one alone can reject it
    sigma_p = OriginGraph("ab", "cd", (2, 1))
    ok = dict(input_base="ab", output_base="cd")
    assert _ext_precheck_m0(ExtendedResynchronizer(**ok), sigma_p)
    for part, text in (("alpha", "exists z. z = z + 1"), ("beta", "forall z. c(z)"),
                       ("delta", "x < y")):
        ext = ExtendedResynchronizer(**{part: parse_formula(text)}, **ok)
        assert not _ext_precheck_m0(ext, sigma_p), part
        # the sweep finds the same: t1 is its own only partner
        t = OneWayTransducer(STATES, ("a", "b"), ("c", "d"),
                             (("p", "a", (), "q"), ("q", "b", ("c", "d"), "r")), {"p"}, {"r"})
        verdict = contains_upto(t, t, ext, 2, RunCaps(4, 10))
        assert verdict.counterexample.reason == "no-accepted-partner", part


def test_alphabet_mismatch_raises(t_id, t_first, caps):
    with pytest.raises(ValueError):
        contains_upto(t_id, t_first, make_identity(), 2, caps)


@pytest.mark.parametrize("t1,t2,r", [
    ("t_one_two", "t_one_two", lambda: make_identity(base=("z",))),
    ("t_one_two", "t_one_two", lambda: make_param_example(base=("z",))),
    ("t_last", "t_first", lambda: make_first_to_last(input_base=("z", "y"))),
    ("t_last", "t_first", lambda: make_first_to_last(output_base=("z", "y"))),
], ids=["identity", "param-example", "extended-input", "extended-output"])
def test_base_alphabet_missing_t1_letters_raises(t1, t2, r, request):
    t1, t2 = request.getfixturevalue(t1), request.getfixturevalue(t2)
    with pytest.raises(ResyncError, match="letters outside the resynchronizer's"):
        contains_upto(t1, t2, r(), 2, RunCaps(6, 20))


def test_failing_verdict_pruned_covers_the_inputs_swept():
    gt = build_tiles(grow())
    tdown, tup = build_Tdown(gt), build_Tup(gt)
    caps = RunCaps(10, 12)
    r = make_shift(1, base=tuple(sorted(tdown.input_alphabet)))
    verdict = contains_upto(tdown, tup, r, 4, caps)
    cex = verdict.counterexample.sigma_p.input
    assert (verdict.status, cex) == ("fails", ("t5", "t1", "t1"))
    words = list(words_upto(tdown.input_alphabet, 4))
    swept = words[:words.index(cex) + 1]
    assert not verdict.pruned
    assert not any(run_origin_graphs(tdown, u, caps).pruned for u in swept)
    # inputs after the counterexample are pruned, and the sweep never saw them
    assert any(run_origin_graphs(tdown, u, caps).pruned for u in words[len(swept):])


def renamed_and_reversed(t):
    """t with its transitions listed in reverse and its states renamed so
    that they also sort in reverse."""
    names = {q: f"s{i}" for i, q in enumerate(sorted(t.states, key=repr, reverse=True))}
    trans = tuple((names[tr[0]],) + tr[1:-1] + (names[tr[-1]],) for tr in reversed(t.transitions))
    return type(t)(set(names.values()), t.input_alphabet, t.output_alphabet, trans,
                   {names[q] for q in t.initial}, {names[q] for q in t.final}, t.name)


def test_verdicts_independent_of_transition_order_and_state_names(t_one_two, t_two_one,
                                                                  t_id, t_rev):
    cases = [(list(itertools.product((t1, renamed_and_reversed(t1)),
                                     (t2, renamed_and_reversed(t2)))), caps, n, ("a",))
             for (t1, t2, caps, n) in [(t_one_two, t_two_one, RunCaps(10, 50), 5),
                                       (t_id, t_rev, RunCaps(8, 60), 4)]]
    # a run's least step count fits the caps, a longer eps path does not
    repro = [stale_step_repro(order) for order in (range(7), (0, 2, 3, 4, 1, 5, 6))]
    cases.append((list(itertools.product(repro, repro)), RunCaps(3, 4), 3, ("x",)))
    for (variants, caps, n, base) in cases:
        checks = [lambda a, b, k=k: contains_upto(a, b, make_shift(k, base=base), n, caps)
                  for k in (0, 1)]
        checks.append(lambda a, b: contains_upto(a, b, make_identity(base=base), n, caps))
        checks.append(lambda a, b: contains_upto(a, b, make_Rk(1, base=base), n, caps,
                                                 membership=rk_membership_via_traversal(1)))
        checks.append(lambda a, b: traversal_profile(a, b, n, caps))
        for check in checks:
            assert len({report_json(check(a, b)) for (a, b) in variants}) == 1, variants[0]


def early_and_late():
    """t1 writes a at every letter; t2 reads the whole input, then writes
    every a at the last position."""
    early = OneWayTransducer(STATES, LETTERS, ("a",),
                             (("p", "a", ("a",), "p"), ("p", "b", ("a",), "p")), {"p"}, {"p"})
    late = OneWayTransducer(STATES, LETTERS, ("a",),
                            (("p", "a", (), "p"), ("p", "b", (), "p"), ("p", EPS, (), "r"),
                             ("r", EPS, ("a",), "r")), {"p"}, {"r"})
    return early, late


@settings(max_examples=40)
@given(machine_pairs(), st.integers(0, 2))
@example(early_and_late(), 0)
def test_gamma_table_search_matches_candidate_membership(pair, k):
    t1, t2 = pair
    r = make_shift(k, base=LETTERS)
    caps = RunCaps(3, 10)
    table = contains_upto(t1, t2, r, 3, caps)
    candidates = contains_upto(t1, t2, r, 3, caps,
                               membership=lambda s, sp: pair_in_resync(r, s, sp))
    assert report_json(table) == report_json(candidates)
    assert table.counterexample == candidates.counterexample


@settings(max_examples=40)
@given(two_way_pairs(), st.sampled_from(("shift(0)", "shift(1)", "shift(2)", "first", "block")),
       st.booleans())
def test_two_way_gamma_table_matches_candidate_membership(pair, name, reflexive):
    # a two-way t2's listed partners checked against the gamma table, and
    # one by one by pair_in_resync, give the same verdicts and pairs
    t1, t2 = pair
    if reflexive:
        t2 = t1
    base = ("a", "b")
    r = {"shift(0)": make_shift(0, base), "shift(1)": make_shift(1, base),
         "shift(2)": make_shift(2, base), "first": make_first(base),
         "block": make_block(base)}[name]
    membership = lambda s, sp: pair_in_resync(r, s, sp)
    caps = RunCaps(3, 8)
    table = contains_upto(t1, t2, r, 3, caps)
    candidates = contains_upto(t1, t2, r, 3, caps, membership=membership)
    assert report_json(table) == report_json(candidates)
    assert table.counterexample == candidates.counterexample
    recorded = contains_upto(t1, t2, r, 3, caps, record=True)
    assert recorded.pairs == contains_upto(t1, t2, r, 3, caps, record=True,
                                           membership=membership).pairs
    assert report_json(recorded) == report_json(table)


@settings(max_examples=60)
@given(machine_pairs(cycle=False))
@example(early_and_late())
def test_profile_of_random_machines_matches_bruteforce_oracle(pair):
    # the oracle would enumerate the laps of an output-free cycle one by
    # one; test_partner_enumeration_matches_run_enumeration covers cycles
    t1, t2 = pair
    caps = RunCaps(3, 10)
    assert traversal_profile(t1, t2, 3, caps).values == profile_oracle(t1, t2, 3, caps)


@settings(max_examples=25)
@given(st.data(), machine_pairs())
def test_random_verdicts_independent_of_transition_order_and_state_names(data, pair):
    t1, t2 = pair
    caps = RunCaps(3, 10)
    r = make_shift(data.draw(st.integers(0, 2)), base=LETTERS)
    pairs = list(zip(data.draw(variants(t1)), data.draw(variants(t2))))
    assert len({report_json(contains_upto(a, b, r, 3, caps)) for (a, b) in pairs}) == 1
    assert len({report_json(traversal_profile(a, b, 3, caps)) for (a, b) in pairs}) == 1


def frontier_t1(t):
    """t with only the eps moves that go to a later state in STATES order,
    so that its eps moves form no cycle, and with at most one letter
    written per move, which keeps the oracle's partner enumeration small."""
    keep = tuple((p, a, out[:1], q) for (p, a, out, q) in t.transitions
                 if a is not EPS or STATES.index(p) < STATES.index(q))
    return OneWayTransducer(t.states, t.input_alphabet, t.output_alphabet, keep,
                            t.initial, t.final)


def containment_oracle(t1, t2, r, max_len, caps):
    """(status, counterexample, pruned) of contains_upto(t1, t2, r) by brute
    force: t1's graphs from run_origin_graphs, every partner from the
    restricted enumeration, each position tested with gamma_holds, the
    naive evaluator."""
    pruned = False
    for u in words_upto(t1.input_alphabet, max_len):
        res = run_origin_graphs(t1, u, caps)
        pruned = pruned or res.pruned
        found_for, holds = {}, {}
        for sp in sorted(res.graphs, key=OriginGraph.sort_key):
            if sp.output not in found_for:
                found_for[sp.output] = partners(t2, u, sp.output)
            found = found_for[sp.output]
            for (x, y) in {(x, y) for org in found for (x, y) in zip(org, sp.orig)} - set(holds):
                holds[(x, y)] = r.gamma_holds(u, (), x, y)
            if not any(all(holds[(x, y)] for (x, y) in zip(org, sp.orig)) for org in found):
                reason = "no-accepted-partner" if found else "no-partner"
                return "fails", Counterexample(sp, reason), pruned
    return "holds-on-sweep", None, pruned


# besides shift(k) and identity: a gamma that x = y does not always
# satisfy, and one that reads the end of the input
FRONTIER_GAMMAS = ("x = y & a(x)", "x = y | (last(x) & y <= x)")


def frontier_cases():
    return st.tuples(machine_pairs(), st.sampled_from(("identity", 0, 1, 2) + FRONTIER_GAMMAS),
                     st.integers(1, 4))


def frontier_resync(kind):
    if kind == "identity":
        return make_identity(LETTERS)
    if isinstance(kind, str):
        return Resynchronizer((), parse_formula(kind), base=LETTERS)
    return make_shift(kind, base=LETTERS)


# a frontier_t1 makes at most 3 moves and writes at most 3 letters per
# input letter, plus 2 trailing moves: these caps cannot bind
FRONTIER_CAPS = RunCaps(14, 14)


@settings(max_examples=60, deadline=None)
@given(frontier_cases())
@example((early_and_late(), 0, 3))
def test_frontier_matches_bruteforce_oracle(case):
    (t1, t2), kind, n = case
    t1 = frontier_t1(t1)
    r = frontier_resync(kind)
    stats = {}
    verdict = contains_upto(t1, t2, r, n, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    assert (verdict.status, verdict.counterexample, verdict.pruned) == \
        containment_oracle(t1, t2, r, n, FRONTIER_CAPS)
    if verdict.saturated_at is not None:
        assert verdict.holds and len(stats["layers"]) == verdict.saturated_at


@settings(max_examples=30, deadline=None)
@given(st.data(), frontier_cases())
def test_frontier_verdicts_independent_of_t2_variants(data, case):
    (t1, t2), kind, n = case
    t1 = frontier_t1(t1)
    r = frontier_resync(kind)
    got = set()
    for b in data.draw(variants(t2)):
        stats = {}
        v = contains_upto(t1, b, r, n, FRONTIER_CAPS, stats=stats)
        got.add((report_json(v), v.saturated_at, stats["free_exits"], stats["t2_steps"]))
    assert len(got) == 1


def test_frontier_keeps_the_run_with_fewer_partners():
    # both t1 runs reach q after two letters, writing a at 1 or at 2; under
    # shift(1) the first has only the partner writing a at 2, which cannot
    # stop at length 3, the second also the one writing a at 3, which can
    t1 = OneWayTransducer({"p", "m", "n", "q", "f"}, {"a"}, {"a"},
                          (("p", "a", ("a",), "m"), ("m", "a", (), "q"),
                           ("p", "a", (), "n"), ("n", "a", ("a",), "q"),
                           ("q", "a", (), "f")), {"p"}, {"f"})
    t2 = OneWayTransducer({"p", "s1", "s2", "c1", "c2", "d", "g"}, {"a"}, {"a"},
                          (("p", "a", (), "s1"), ("s1", "a", ("a",), "c1"),
                           ("s1", "a", (), "s2"), ("s2", "a", ("a",), "c2"),
                           ("c1", "a", (), "d"), ("d", "a", (), "g")), {"p"}, {"c2", "g"})
    r = make_shift(1, base=("a",))
    stats = {}
    verdict = contains_upto(t1, t2, r, 4, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    cex = Counterexample(OriginGraph(("a",) * 3, ("a",), (1,)), "no-accepted-partner")
    assert (verdict.status, verdict.counterexample, verdict.pruned) == ("fails", cex, False) == \
        containment_oracle(t1, t2, r, 4, FRONTIER_CAPS)


def identity_unsafe_pair():
    """t1 writes a on the b after an a; t2's one state r is free: it
    follows any output at its own origin."""
    t1 = OneWayTransducer({"p", "q", "f"}, LETTERS, {"a"},
                          (("p", "a", (), "q"), ("q", "b", ("a",), "f")), {"p"}, {"f"})
    t2 = OneWayTransducer({"r"}, LETTERS, {"a"},
                          (("r", "a", (), "r"), ("r", "b", (), "r"), ("r", EPS, ("a",), "r")),
                          {"r"}, {"r"})
    return t1, t2


def test_frontier_collapses_only_when_identity_is_safe():
    # t2's state r follows any output at its own origin, but gamma
    # refuses x = y on b: the run that has written nothing after "a" must
    # stay on the frontier, and fails once it writes on the b
    t1, t2 = identity_unsafe_pair()
    r = Resynchronizer((), parse_formula("x = y & a(x)"), base=LETTERS)
    stats = {}
    verdict = contains_upto(t1, t2, r, 3, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    assert (verdict.status, verdict.counterexample) == \
        ("fails", Counterexample(OriginGraph(("a", "b"), ("a",), (2,)), "no-accepted-partner"))


def with_eps_cycle(t, out):
    """t with an eps-cycle through its first two states that writes out."""
    cycle = {("p", EPS, out, "q"), ("q", EPS, (), "p")}
    return OneWayTransducer(t.states, t.input_alphabet, t.output_alphabet,
                            tuple(sorted(set(t.transitions) | cycle, key=repr)),
                            t.initial, t.final)


@st.composite
def capped_cases(draw):
    """(t1, t2), a gamma kind, a length and small caps, which often bind:
    t1 has a silent or a writing eps-cycle, and the output cap stays small
    enough for the oracle's partner enumeration."""
    (t1, t2), kind, n = draw(frontier_cases())
    t1 = with_eps_cycle(t1, draw(st.sampled_from(((), ("a",)))))
    caps = RunCaps(draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    return (t1, t2), kind, min(n, 3), caps


def eps_cycle_machine(out):
    """From p, reading a or b writes a; q returns to p by an eps move, and
    p reaches q by an eps move writing out.  p is initial and final."""
    trans = (("p", "a", ("a",), "p"), ("p", "b", ("a",), "p"),
             ("p", EPS, out, "q"), ("q", EPS, (), "p"))
    return OneWayTransducer(STATES, LETTERS, ("a",), trans, {"p"}, {"p"})


def reads_a_only():
    return OneWayTransducer(STATES, LETTERS, ("a",), (("p", "a", ("a",), "p"),), {"p"}, {"p"})


@settings(max_examples=60, deadline=None)
@given(capped_cases())
# a writing eps-cycle: every input has a run the output cap cuts
@example(((eps_cycle_machine(("a",)), eps_cycle_machine(("a",))), 0, 2, RunCaps(4, 8)))
# a silent eps-cycle whose caps never bind
@example(((eps_cycle_machine(()), eps_cycle_machine(())), "identity", 3, RunCaps(3, 8)))
# fails on b, before the first input whose runs the output cap cuts
@example(((eps_cycle_machine(()), reads_a_only()), "identity", 3, RunCaps(2, 20)))
def test_capped_frontier_matches_bruteforce_oracle(case):
    (t1, t2), kind, n, caps = case
    r = frontier_resync(kind)
    stats = {}
    verdict = contains_upto(t1, t2, r, n, caps, stats=stats)
    assert stats["route"] == "frontier"
    oracle = containment_oracle(t1, t2, r, n, caps)
    assert (verdict.status, verdict.counterexample, verdict.pruned) == oracle
    # a writing eps-cycle keeps the caps from being shown never to bind; a
    # silent one does not lengthen a run at its least step count
    if ("p", EPS, ("a",), "q") in t1.transitions or oracle[2]:
        assert verdict.saturated_at is None
    if verdict.saturated_at is not None:
        assert verdict.holds and len(stats["layers"]) == verdict.saturated_at


class EagerFrontier(_Frontier):
    """The frontier without free exits: ``step`` builds every successor
    set of a pair, then drops the pair if the union holds a free t2 state
    with nothing pending or settled; ``fails`` unions every configuration's
    end items before it asks ``t2_covers``."""

    def step(self, state, a):
        z, pairs = state
        free = frozenset((q, (), frozenset()) for q in self.free)
        minimal = {}
        for (q1, configs) in pairs:
            for (r1, w) in self.m1.t1_moves(q1, a)[0]:
                nxt = frozenset().union(*(self.t2_next(c, w, a, z) for c in configs))
                if nxt.isdisjoint(free):
                    minimal.setdefault(r1, set()).add(nxt)
        out = _antichains(minimal)
        if not out:
            return _EMPTY
        return (self.steps[a][z][0], frozenset(out))

    def fails(self, state, a):
        z, pairs = state
        if not pairs:
            return False
        writes = self.steps[a][z][3] in self.g_final
        for (q1, configs) in pairs:
            words = self.m1.t1_moves(q1, a)[1]
            if not words:
                continue
            if not writes and words[-1]:
                return True
            front = frozenset().union(*(self.t2_ends(c, a) for c in configs))
            if not self.m2.t2_covers(front, words, a):
                return True
        return False


# a late letter is accepted only if the input ends there, or if no b
# comes more than one position after it
LATE_GAMMAS = {False: "x = y | (last(x) & y <= x)",
               True: "x = y | (y < x & !(exists w. exists z. (w = x + 1 & w < z & b(z))))"}


def late_free_pair(settle_first):
    """t1 writes a on its first letter, an a, and needs a b next; t2
    writes that a late, on the b, and ends in its free state r, on that
    move or, when settle_first, on the next letter.  Under
    ``LATE_GAMMAS[settle_first]`` r follows any output from where it is
    reached, yet the pair fails: on aba, or on abab once the a is
    settled."""
    t1 = OneWayTransducer({"p", "q", "f"}, LETTERS, {"a"},
                          (("p", "a", ("a",), "q"), ("q", "b", (), "f"),
                           ("f", "a", (), "f"), ("f", "b", (), "f")), {"p"}, {"f"})
    free = (("r", "a", (), "r"), ("r", "b", (), "r"), ("r", EPS, ("a",), "r"))
    if settle_first:
        trans = (("s", "a", (), "m"), ("m", "b", ("a",), "n"),
                 ("n", "a", (), "r"), ("n", "b", (), "r"))
        final = {"n", "r"}
    else:
        trans = (("s", "a", (), "m"), ("m", "b", ("a",), "r"))
        final = {"r"}
    t2 = OneWayTransducer({"s", "m", "n", "r"}, LETTERS, {"a"}, trans + free, {"s"}, final)
    return t1, t2


def differential_cases():
    """frontier_cases() under caps that cannot bind, and capped_cases()."""
    plain = frontier_cases().map(
        lambda c: ((frontier_t1(c[0][0]), c[0][1]), c[1], c[2], FRONTIER_CAPS))
    return st.one_of(plain, capped_cases())


@settings(max_examples=80, deadline=None)
@given(differential_cases())
@example((identity_unsafe_pair(), "x = y & a(x)", 3, FRONTIER_CAPS))
@example((identity_unsafe_pair(), "identity", 3, FRONTIER_CAPS))
# a pending letter, or a settled one, that rejects once the input goes on
@example((late_free_pair(False), LATE_GAMMAS[False], 3, FRONTIER_CAPS))
@example((late_free_pair(True), LATE_GAMMAS[True], 4, FRONTIER_CAPS))
def test_free_exits_match_the_eager_frontier(case):
    # deciding the free exit before any successor set is built, and
    # stopping the end check at a configuration that finishes every word,
    # give the same least failing input, layers and saturation; no
    # successor set is built that the eager frontier would not build
    (t1, t2), kind, n, caps = case
    r = frontier_resync(kind)
    fast = _Frontier(t1, t2, n, caps, r)
    eager = EagerFrontier(t1, t2, n, caps, r)
    assert fast.run(n) == eager.run(n)
    assert fast.next2.keys() <= eager.next2.keys()


def writes_ahead():
    """t1 writes a at every letter; t2 writes all of its a's before it
    reads the first letter, then reads the rest silently."""
    eager = OneWayTransducer(STATES, LETTERS, ("a",),
                             (("p", EPS, ("a",), "p"), ("p", "a", (), "q"), ("p", "b", (), "q"),
                              ("q", "a", (), "q"), ("q", "b", (), "q")), {"p"}, {"q"})
    return early_and_late()[0], eager


def owes_another_letter():
    """t1 writes b at its second letter and a after; t2 writes a at its
    first letter, so it owes t1 an a where t1 writes b: no partner."""
    late_b = OneWayTransducer(STATES, ("a",), LETTERS,
                              (("p", "a", (), "q"), ("q", "a", ("b",), "r"),
                               ("r", "a", ("a",), "r")), {"p"}, {"r"})
    early_a = OneWayTransducer(STATES, ("a",), LETTERS,
                               (("p", "a", ("a",), "q"), ("q", "a", (), "q"),
                                ("q", "a", ("a",), "q")), {"p"}, {"q"})
    return late_b, early_a


@st.composite
def profile_cases(draw):
    """(t1, t2), a length and caps.  t1 sometimes has a silent or a writing
    eps-cycle.  The caps are small enough to bind often, or, without a
    writing cycle, large enough that they seldom do, on inputs kept short
    for the oracle.  Half the time t2 can write any number of a's at the
    last position, and its accepting state often pads and reads in place,
    which makes it free."""
    t1, t2 = draw(machine_pairs(cycle=False))
    cycle = draw(st.sampled_from((None, (), ("a",))))
    if cycle is not None:
        t1 = with_eps_cycle(t1, cycle)
    if cycle != ("a",) and draw(st.booleans()):
        return (t1, t2), draw(st.integers(1, 4 if cycle is None else 3)), RunCaps(6, 30)
    caps = RunCaps(draw(st.integers(1, 4)), draw(st.integers(1, 10)))
    return (t1, t2), draw(st.integers(1, 3)), caps


@settings(max_examples=50, deadline=None)
@given(profile_cases())
@example((early_and_late(), 4, RunCaps(8, 40)))
# t2 owes t1 every letter but the first, up to what t1 can still write
@example((writes_ahead(), 4, RunCaps(8, 40)))
@example(((corpus.t_fast(), t_skip_then_pad()), 4, RunCaps(6, 40)))
# the letter t1 writes is not the one t2 wrote ahead
@example((owes_another_letter(), 4, RunCaps(6, 30)))
# a two-way t1 and a one-way t2 stay on the sweep
@example(((corpus.t_rev(), corpus.t_slow()), 4, RunCaps(8, 40)))
def test_profile_frontier_matches_bruteforce_oracle(case):
    (t1, t2), n, caps = case
    stats = {}
    profile = traversal_profile(t1, t2, n, caps, stats=stats)
    one_way = isinstance(t1, OneWayTransducer)
    assert stats["route"] == ("frontier" if one_way else "sweep")
    assert len(stats["layers"]) == (n if one_way else 0)
    assert profile.values == profile_oracle(t1, t2, n, caps)
    assert profile.approximate == any(run_origin_graphs(t1, u, caps).pruned
                                      for u in words_upto(t1.input_alphabet, n))



# FRONTIER_CAPS cannot bind on a frontier_t1; the small caps often do
PAIR_CALLS = ("identity", "shift(0)", "shift(1)", "shift(2)", "first", "profile")
PAIR_CAPS = (FRONTIER_CAPS, RunCaps(2, 4))


def pair_call(t1, t2, kind, n, caps):
    """report_json, counterexample and stats of one call, without the
    seconds a gamma compile took."""
    stats = {}
    if kind == "profile":
        got = traversal_profile(t1, t2, n, caps, stats=stats)
        cex = None
    else:
        r = make_first(LETTERS) if kind == "first" else frontier_resync(
            "identity" if kind == "identity" else int(kind[6]))
        got = contains_upto(t1, t2, r, n, caps, stats=stats)
        cex = (got.counterexample, got.saturated_at)
    stats.pop("gamma_compile_s", None)
    return report_json(got), cex, stats


@settings(max_examples=30, deadline=None)
@given(st.data(), machine_pairs(), st.booleans(), st.integers(1, 3))
def test_calls_on_one_pair_match_calls_on_rebuilt_copies(data, pair, same, n):
    # the calls on one pair of objects share one product; each call on
    # copies rebuilt for it starts from an empty one
    t1 = frontier_t1(pair[0])
    t2 = t1 if same else pair[1]
    calls = data.draw(st.lists(st.tuples(st.sampled_from(PAIR_CALLS), st.sampled_from(PAIR_CAPS)),
                               min_size=2, max_size=6))
    got = [pair_call(t1, t2, kind, n, caps) for (kind, caps) in calls]
    want = []
    for (kind, caps) in calls:
        c1 = rebuilt(t1)
        want.append(pair_call(c1, c1 if same else rebuilt(t2), kind, n, caps))
    assert got == want


def test_a_dropped_machine_is_freed_after_a_call_on_another_pair():
    t1, t2 = early_and_late()
    held = weakref.ref(t1)
    r = make_shift(1, base=LETTERS)
    stats = {}
    contains_upto(t1, t2, r, 3, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    del t1, t2
    other = reads_a_only()
    contains_upto(other, other, r, 3, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    gc.collect()
    assert held() is None


def test_a_frontier_call_keeps_neither_machine_alive():
    # the tables of each machine live on it and refer to neither
    t1, t2 = early_and_late()
    held = (weakref.ref(t1), weakref.ref(t2))
    stats = {}
    contains_upto(t1, t2, make_shift(1, base=LETTERS), 3, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    del t1, t2
    gc.collect()
    assert [ref() for ref in held] == [None, None]


def test_calls_on_gamma_never_write_out_its_transitions(monkeypatch, t_first, t_last):
    # every reader of gamma's moves reads the step table; the transitions are
    # written out when read, as the tuple compile_dfa writes
    written = []
    lazy = StepDfa.__dict__["transitions"]
    spy = functools.cached_property(lambda d: written.append(d) or lazy.func(d))
    spy.__set_name__(StepDfa, "transitions")
    monkeypatch.setattr(StepDfa, "transitions", spy)
    caps = RunCaps(6, 40)
    shift, ident, param = make_shift(1), make_identity(), make_param_example()
    rk, pm1 = make_Rk(2), make_pm1()
    for r, route, kw in ((shift, "frontier", {}), (ident, "sweep", {"record": True}),
                         (param, "sweep", {})):
        stats = {}
        contains_upto(t_first, t_last, r, 3, caps, stats=stats, **kw)
        assert stats["route"] == route
    sigma = OriginGraph("abab", "cd", (1, 3))
    assert pair_in_resync(rk, sigma, OriginGraph("abab", "cd", (3, 1))) is not None
    assert bounded_by(pm1, 1, 4) is not None and is_bounded(pm1).bounded
    assert resync_search(t_first, t_last, 2, 3, caps).found
    assert written == []
    for r in (shift, ident, param, rk, pm1):
        dfa = r.gamma_dfa()[0]
        assert dfa.transitions == compile_dfa(r._compiled_formula(), r.signature, r.base).transitions
    assert len(written) == 5


def test_one_way_tables_are_built_once_per_machine(monkeypatch):
    built = {"MatchIndex": [], "transition_index": []}
    index_init, buckets = transducers.MatchIndex.__init__, transducers.transition_index

    def counted_index_init(self, t):
        built["MatchIndex"].append(t)
        index_init(self, t)

    def counted_buckets(t):
        built["transition_index"].append(t)
        return buckets(t)

    monkeypatch.setattr(transducers.MatchIndex, "__init__", counted_index_init)
    monkeypatch.setattr(transducers, "transition_index", counted_buckets)
    t1, t2 = early_and_late()
    r = make_shift(1, base=LETTERS)
    stats = {}
    contains_upto(t1, t2, r, 3, FRONTIER_CAPS, stats=stats)
    assert stats["route"] == "frontier"
    contains_upto(t1, t2, r, 3, FRONTIER_CAPS, stats=stats,
                  membership=lambda s, s_p: pair_in_resync(r, s, s_p))
    assert stats["route"] == "sweep"
    traversal_profile(t1, t2, 3, FRONTIER_CAPS)
    run_origin_graphs(t1, "ab", FRONTIER_CAPS)
    run_origin_graphs(t2, "ab", FRONTIER_CAPS)
    assert list(enumerate_matching_graphs(t1, "ab", "aa")) == [(1, 2)]
    for made in built.values():
        assert sorted(map(id, made)) == sorted([id(t1), id(t2)])


ONE_WAY_CALLS = ("frontier", "param", "callback", "profile", "equiv", "runs", "partners")
ONE_WAY_CAPS = (FRONTIER_CAPS, RunCaps(2, 4), RunCaps(3, 8))


def one_way_call(t1, t2, kind, k, n, caps):
    """The answer of one call on one-way t1 and t2 up to length n, with the
    stats of a containment or profile call, without the seconds a gamma
    compile took."""
    stats = {}
    if kind in ("frontier", "param", "callback"):
        r = make_param_example(LETTERS) if kind == "param" else make_shift(k, base=LETTERS)
        check = (lambda s, s_p: pair_in_resync(r, s, s_p)) if kind == "callback" else None
        got = contains_upto(t1, t2, r, n, caps, membership=check, stats=stats)
        stats.pop("gamma_compile_s", None)
        assert stats["route"] == ("frontier" if kind == "frontier" else "sweep")
        return report_json(got), got.counterexample, got.saturated_at, stats
    if kind == "profile":
        return report_json(traversal_profile(t1, t2, n, caps, stats=stats)), stats
    if kind == "equiv":
        return origin_equivalent_upto(t1, t2, n, caps)
    if kind == "runs":
        return [run_origin_graphs(t, u, caps) for t in (t1, t2) for u in words_upto(LETTERS, n)]
    return [list(enumerate_matching_graphs(t2, u, "a" * m))
            for u in words_upto(LETTERS, n) for m in range(4)]


def covers_hold_their_words(t):
    """Does each covers entry on t hold the words tuple whose id is in its
    key?  Then no other tuple can take that id while the entry lives."""
    moves2 = vars(t).get("_memo", {}).get("moves2")
    return moves2 is None or all(id(words) == key[1]
                                 for key, (words, _covers) in moves2.covers.items())


@settings(max_examples=30, deadline=None)
@given(st.data(), machine_pairs(), st.booleans(), st.integers(1, 3))
def test_one_way_calls_in_any_order_match_fresh_copies(data, pair, same, n):
    # each one-way machine keeps its tables across the calls, in either
    # place and under any caps.  Before one call t1 is dropped, collected
    # and replaced by another machine, while t2 keeps the tables it built
    # with the old t1, whose words tuples the new t1's may reuse the
    # memory of.  Each answer must be the one copies never asked before
    # give.  frontier_t1 keeps the sweeps under the caps small
    t1 = frontier_t1(pair[0])
    t2 = t1 if same else frontier_t1(pair[1])
    calls = data.draw(st.lists(st.tuples(st.sampled_from(ONE_WAY_CALLS), st.integers(0, 2),
                                         st.sampled_from(ONE_WAY_CAPS), st.booleans()),
                               min_size=2, max_size=6))
    drop = data.draw(st.integers(1, len(calls) - 1))
    other = frontier_t1(data.draw(machine_pairs())[0])
    for i, (kind, k, caps, swap) in enumerate(calls):
        if i == drop:
            held = weakref.ref(t1)
            t1, other = other, None
            gc.collect()
            assert (held() is None) != same
        got = one_way_call(*((t2, t1) if swap else (t1, t2)), kind, k, n, caps)
        c1 = rebuilt(t1)
        c2 = c1 if t2 is t1 else rebuilt(t2)
        want = one_way_call(*((c2, c1) if swap else (c1, c2)), kind, k, n, caps)
        assert got == want, (i, kind)
        assert covers_hold_their_words(t1) and covers_hold_their_words(t2)


TWO_WAY_CALLS = ("contains", "profile", "equiv", "search")
TWO_WAY_CAPS = (RunCaps(3, 6), RunCaps(3, 9), RunCaps(2, 9))


def two_way_call(t1, t2, kind, caps):
    """The answer of one call on t1 and t2 up to length 3, with the stats of
    a containment or profile call, without the seconds a gamma compile
    took."""
    stats = {}
    if kind == "contains":
        got = contains_upto(t1, t2, make_identity(LETTERS), 3, caps, stats=stats)
        stats.pop("gamma_compile_s")
        return report_json(got), got.counterexample, stats
    if kind == "profile":
        return report_json(traversal_profile(t1, t2, 3, caps, stats=stats)), stats
    if kind == "equiv":
        return origin_equivalent_upto(t1, t2, 3, caps)
    return report_json(resync_search(t1, t2, 2, 3, caps))


@given(two_way_pairs(), st.sampled_from(TWO_WAY_CAPS))
def test_two_way_self_calls_list_the_sweeps_own_graphs(pair, caps):
    # with t2 = t1 the partners are the graphs the sweep sorted for the
    # judge: no listing asks for a run, and the answers are those of
    # listings that group t1's run themselves, as for another t2
    t = pair[0]
    asked = []

    def run(*args):
        asked.append(args)
        return run_origin_graphs(*args)

    def calls(t):
        # the recorded partners are the first each search admits
        recorded = contains_upto(t, t, make_universal(LETTERS), 3, caps, record=True)
        return [two_way_call(t, t, kind, caps) for kind in ("contains", "profile", "search")] + \
            [report_json(recorded), recorded.pairs]

    with mock.patch.object(containment, "run_origin_graphs", run):
        got = calls(t)
    assert asked == []
    c = rebuilt(t)
    with mock.patch.object(containment._Listing, "of_graphs",
                           staticmethod(lambda graphs: containment._Listing(c, caps, None))):
        assert calls(c) == got


@given(st.data(), two_way_pairs(), st.booleans())
def test_two_way_calls_in_any_order_match_fresh_copies(data, pair, same):
    # each two-way machine keeps its runs across the calls, in either
    # place; each answer must be the one copies never asked before give
    t1, t2 = pair
    t2 = t1 if same else t2
    calls = data.draw(st.lists(st.tuples(st.sampled_from(TWO_WAY_CALLS),
                                         st.sampled_from(TWO_WAY_CAPS), st.booleans()),
                               min_size=2, max_size=6))
    got = [two_way_call(*((t2, t1) if swap else (t1, t2)), kind, caps)
           for (kind, caps, swap) in calls]
    want = []
    for (kind, caps, swap) in calls:
        c1 = rebuilt(t1)
        c2 = c1 if same else rebuilt(t2)
        want.append(two_way_call(*((c2, c1) if swap else (c1, c2)), kind, caps))
    assert got == want


def each_call_in_turn(t1, t2, caps):
    """Equivalence, containment under identity, the profile and the R_k
    search on t1 and t2 under one caps, and the runs of two-way machines
    they make, as (machine, input, caps)."""
    runs, run = [], transducers._run_2nt

    def counted(t, u, c):
        runs.append((t, u, c))
        return run(t, u, c)

    with mock.patch.object(transducers, "_run_2nt", counted):
        got = [two_way_call(t1, t2, kind, caps)
               for kind in ("equiv", "contains", "profile", "search")]
    return got, runs


def assert_each_run_made_once(t1, t2, caps):
    # the calls share one caps, so each machine runs each input at most
    # once, and a t2 equal to t1 reads t1's runs; the answers are those of
    # copies never asked before
    got, runs = each_call_in_turn(t1, t2, caps)
    keys = [(id(t), u) for (t, u, _c) in runs]
    assert len(keys) == len(set(keys))
    assert all(c == caps for (_t, _u, c) in runs)
    if t2 == t1:
        assert all(t is t1 for (t, _u, _c) in runs)
    c1 = rebuilt(t1)
    c2 = c1 if t2 is t1 else rebuilt(t2)
    assert got == each_call_in_turn(c1, c2, caps)[0]


@pytest.mark.parametrize("order", ["id-rev", "rev-id"])
def test_reversal_pair_runs_each_input_once(order):
    t1, t2 = corpus.t_id(), corpus.t_rev()
    assert_each_run_made_once(*((t1, t2) if order == "id-rev" else (t2, t1)), RunCaps(6, 16))


@given(two_way_pairs(), st.sampled_from(("drawn", "same", "copy")), st.sampled_from(TWO_WAY_CAPS))
def test_two_way_calls_run_each_input_once(pair, t2_is, caps):
    t1, t2 = pair
    t2 = {"drawn": t2, "same": t1, "copy": rebuilt(t1)}[t2_is]
    assert_each_run_made_once(t1, t2, caps)
