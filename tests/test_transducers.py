import pytest
from hypothesis import example, given, strategies as st

from origami import corpus
from origami.transducers import (OneWayTransducer, TwoWayTransducer, RunCaps, OriginGraph,
                                 run_origin_graphs, classical_pairs, origin_equivalent_upto,
                                 sweep_origin_graphs, enumerate_matching_graphs, words_upto,
                                 EmptyInputError, TransducerAlphabetError, EPS, LMARK,
                                 RMARK, LEFT, RIGHT, _run_2nt, word)

from random_one_way import (LETTERS, SIX_STATES, fifo_run_graphs, one_way_machines, partners,
                            stale_step_repro, variants)
from random_two_way import every_run_graphs, rebuilt, two_way_machines
from outcomes import outcome


def graphs_of(t, u, caps):
    return {(g.output, g.orig) for g in run_origin_graphs(t, u, caps).graphs}


def test_t_id_unique_identity_graph(t_id, caps):
    got = run_origin_graphs(t_id, "a" * 6, caps)
    assert not got.pruned
    assert {(g.output, g.orig) for g in got.graphs} == {(("a",) * 6, (1, 2, 3, 4, 5, 6))}


def test_t_rev_unique_reversal_graph(t_rev, caps):
    got = graphs_of(t_rev, "a" * 6, caps)
    assert got == {(("a",) * 6, (6, 5, 4, 3, 2, 1))}


def test_one_two_graphs_on_aa(t_one_two):
    got = graphs_of(t_one_two, "aa", RunCaps(10, 50))
    assert got == {
        (("a", "a"), (1, 2)),
        (("a", "a", "a"), (1, 2, 2)),
        (("a", "a", "a", "a"), (1, 1, 2, 2)),
    }


def test_classical_pairs_one_two(t_one_two, t_two_one):
    caps = RunCaps(10, 50)
    expect = {(("a",) * n, ("a",) * m) for n in range(1, 5) for m in range(n, 2 * n + 1)}
    assert classical_pairs(t_one_two, 4, caps) == expect
    assert classical_pairs(t_two_one, 4, caps) == expect


def test_no_final_state_empty_relation(caps):
    t = OneWayTransducer({"p"}, {"a"}, {"a"}, (("p", "a", ("a",), "p"),), {"p"}, set())
    assert classical_pairs(t, 3, caps) == set()


def test_classical_pairs_identity(t_id, caps):
    assert classical_pairs(t_id, 3, caps) == {(("a",) * n, ("a",) * n) for n in range(1, 4)}


def test_empty_input_rejected(t_id, caps):
    with pytest.raises(EmptyInputError):
        run_origin_graphs(t_id, "", caps)


def test_letters_outside_the_input_alphabet_rejected(caps):
    # the two-way tape has no move on x, so without the check the run is
    # silently empty; the check comes before the memo is made
    t_id = corpus.t_id()
    for t in (t_id, corpus.t_one_two()):
        for u in ("x", "ax", ("a", "b", "a")):
            with pytest.raises(TransducerAlphabetError, match="not in alphabet"):
                run_origin_graphs(t, u, caps)
    assert "_memo" not in vars(t_id)


def test_partner_search_rejects_the_inputs_runs_reject():
    # the empty input gave [()] and origin-0 tuples, a letter outside the
    # alphabet an empty list; both raise before a table is made
    t = corpus.t_first()
    for v in ("", "cd"):
        with pytest.raises(EmptyInputError):
            list(enumerate_matching_graphs(t, "", v))
    with pytest.raises(TransducerAlphabetError, match="not in alphabet"):
        list(enumerate_matching_graphs(t, "az", "cd"))
    assert "_memo" not in vars(t)


def test_origin_graph_invariants_hold(t_slow, caps):
    for u in ["a", "aa", "aaa"]:
        for g in run_origin_graphs(t_slow, u, caps).graphs:
            assert len(g.orig) == len(g.output)
            assert all(1 <= o <= len(g.input) for o in g.orig)


def test_origin_graph_validation():
    g = OriginGraph("ab", ["c", "d"], [2, 1])
    assert (g.input, g.output, g.orig) == (("a", "b"), ("c", "d"), (2, 1))
    with pytest.raises(EmptyInputError):
        OriginGraph("", (), ())
    with pytest.raises(ValueError, match="one input position per output"):
        OriginGraph("ab", "cd", (1,))
    with pytest.raises(ValueError, match=r"origin 3 out of range 1\.\.2"):
        OriginGraph("ab", "cd", (1, 3))
    with pytest.raises(ValueError, match="origin 0 out of range"):
        OriginGraph("ab", "cd", (0, 1))


def one_way(*transitions):
    return OneWayTransducer({"p"}, {"a"}, {"b"}, transitions, {"p"}, {"p"})


def two_way(*transitions):
    return TwoWayTransducer({"p"}, {"a"}, {"b"}, transitions, {"p"}, {"p"})


TRANSDUCER_ROWS = [
    ("no word", lambda: word(None), ()),
    ("caps of zero", lambda: RunCaps(0, 1), ValueError),
    ("list transition and str output",
     lambda: one_way(["p", "a", "bb", "p"]).transitions, (("p", "a", ("b", "b"), "p"),)),
    ("one-way input letter", lambda: one_way(("p", "c", (), "p")), TransducerAlphabetError),
    ("one-way output letter", lambda: one_way(("p", "a", ("c",), "p")), TransducerAlphabetError),
    ("one-way endpoint", lambda: one_way(("p", "a", (), "q")), ValueError),
    ("two-way input letter",
     lambda: two_way(("p", "c", (), RIGHT, "p")), TransducerAlphabetError),
    ("two-way direction", lambda: two_way(("p", "a", (), "U", "p")), ValueError),
    ("two-way output letter",
     lambda: two_way(("p", "a", ("c",), RIGHT, "p")), TransducerAlphabetError),
    ("two-way endpoint", lambda: two_way(("p", "a", (), RIGHT, "q")), ValueError),
    ("two-way nondeterministic",
     lambda: two_way(("p", "a", (), RIGHT, "p"), ("p", "a", ("b",), RIGHT, "p")).is_deterministic(),
     False),
    ("equivalence across alphabets",
     lambda: origin_equivalent_upto(one_way(), corpus.t_id(), 1, RunCaps(2, 4)),
     TransducerAlphabetError),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in TRANSDUCER_ROWS],
                         ids=[row[0] for row in TRANSDUCER_ROWS])
def test_transducer_rows(call, expected):
    assert outcome(call) == expected


def test_caps_monotone(t_one_two):
    small = run_origin_graphs(t_one_two, "aaa", RunCaps(4, 10))
    big = run_origin_graphs(t_one_two, "aaa", RunCaps(12, 40))
    assert small.graphs <= big.graphs
    assert small.pruned


def test_eps_free_enumeration_exhaustive(t_one_two):
    # without eps output growth the bound max|v| * |u| makes caps exhaustive
    u = "aaaa"
    bound = 2 * len(u)
    res = run_origin_graphs(t_one_two, u, RunCaps(bound, 3 * len(u) + 2))
    assert not res.pruned


def test_2nt_marker_conventions():
    with pytest.raises(ValueError):
        TwoWayTransducer({"p"}, {"a"}, {"a"},
                         (("p", LMARK, ("a",), RIGHT, "p"),), {"p"}, {"p"})
    with pytest.raises(ValueError):
        TwoWayTransducer({"p"}, {"a"}, {"a"},
                         (("p", RMARK, (), RIGHT, "p"),), {"p"}, {"p"})


def test_2nt_deterministic_unique_graphs(t_id, t_rev, caps):
    assert t_id.is_deterministic() and t_rev.is_deterministic()
    for t in (t_id, t_rev):
        for n in range(1, 5):
            assert len(run_origin_graphs(t, "a" * n, caps).graphs) == 1


def test_origin_equiv_reflexive(t_one_two, caps):
    equal, cex = origin_equivalent_upto(t_one_two, t_one_two, 3, caps)
    assert equal and cex is None


def test_origin_equiv_id_vs_rev(t_id, t_rev, caps):
    equal, cex = origin_equivalent_upto(t_id, t_rev, 4, caps)
    assert not equal
    assert cex.input == ("a", "a")


def test_origin_equiv_first_vs_last(t_first, t_last):
    caps = RunCaps(4, 30)
    equal, cex = origin_equivalent_upto(t_first, t_last, 3, caps)
    assert not equal
    # graphs coincide on single-letter inputs, so the minimal witness has
    # two input letters
    assert len(cex.input) == 2


def test_sweep_matches_per_input(t_slow, t_first):
    caps = RunCaps(5, 30)
    for t in (t_slow, t_first):
        for (u, res) in sweep_origin_graphs(t, 3, caps):
            ref = run_origin_graphs(t, u, caps)
            assert res.graphs == ref.graphs
            assert res.pruned == ref.pruned


def test_enumerate_matching_graphs(t_one_two):
    got = list(enumerate_matching_graphs(t_one_two, "aaa", "aaaa"))
    assert got == [(1, 2, 3, 3)] or set(got) == {(1, 2, 3, 3)}
    assert list(enumerate_matching_graphs(t_one_two, "aaa", "aaaaaaa")) == []


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=8))
def test_sweep_equals_per_input_random_caps(n, cap):
    t = corpus.t_one_two()
    caps = RunCaps(cap, 18)
    got = dict(sweep_origin_graphs(t, n, caps))
    for u in got:
        ref = run_origin_graphs(t, u, caps)
        assert got[u].graphs == ref.graphs
        assert got[u].pruned == ref.pruned


def silent_cycle():
    """p reads a and writes a; p and q move to each other reading and
    writing nothing.  Initial and final: p."""
    return OneWayTransducer({"p", "q"}, {"a"}, {"a"},
                            (("p", "a", ("a",), "p"), ("p", EPS, (), "q"), ("q", EPS, (), "p")),
                            {"p"}, {"p"})


@given(st.integers(3, 6).flatmap(lambda k: one_way_machines(states=SIX_STATES[:k])),
       st.integers(1, 6), st.integers(1, 20))
@example(silent_cycle(), 5, 30)
@example(stale_step_repro((0, 2, 3, 4, 1, 5, 6)), 3, 4)
def test_one_way_run_agrees_with_the_sweep(t, max_out, max_steps):
    # graphs and pruned: a cycle of silent eps moves runs no laps, and a
    # configuration met first on a longer path is not cut at that length
    caps = RunCaps(max_out, max_steps)
    for u, res in sweep_origin_graphs(t, 3, caps):
        ref = fifo_run_graphs(t, u, caps)
        run = run_origin_graphs(t, u, caps)
        assert (res.graphs, res.pruned) == (ref.graphs, ref.pruned), u
        assert (run.graphs, run.pruned) == (ref.graphs, ref.pruned), u


def equivalence_oracle(t1, t2, max_len, caps):
    """origin_equivalent_upto, input by input through fifo_run_graphs."""
    for n in range(1, max_len + 1):
        diff = set()
        for u in words_upto(t1.input_alphabet, n, min_len=n):
            diff |= fifo_run_graphs(t1, u, caps).graphs ^ fifo_run_graphs(t2, u, caps).graphs
        if diff:
            return False, min(diff, key=OriginGraph.sort_key)
    return True, None


@given(one_way_machines(("a",)), one_way_machines(("a",)), st.booleans(),
       st.integers(1, 6), st.integers(1, 20))
def test_one_way_equivalence_matches_per_input_oracle(t1, t2, twin, max_out, max_steps):
    # a twin lists t1's transitions in reverse: equal, or differing only by pruning
    if twin:
        t2 = OneWayTransducer(t1.states, t1.input_alphabet, t1.output_alphabet,
                              t1.transitions[::-1], t1.initial, t1.final)
    caps = RunCaps(max_out, max_steps)
    assert origin_equivalent_upto(t1, t2, 3, caps) == equivalence_oracle(t1, t2, 3, caps)
    assert classical_pairs(t1, 3, caps) == {
        (u, g.output) for u in words_upto(LETTERS, 3)
        for g in fifo_run_graphs(t1, u, caps).graphs}


def test_sweep_visits_words_upto_order_and_stops(t_first):
    # a two-way copy machine over {a, b}
    copy = TwoWayTransducer({"p", "q", "f"}, {"a", "b"}, {"a", "b"},
                            (("p", LMARK, (), RIGHT, "q"),
                             ("q", "a", ("a",), RIGHT, "q"), ("q", "b", ("b",), RIGHT, "q"),
                             ("q", RMARK, (), LEFT, "f")),
                            {"p"}, {"f"})
    caps = RunCaps(6, 20)
    words = list(words_upto({"a", "b"}, 3))
    for t in (t_first, copy):
        assert [u for (u, _res) in sweep_origin_graphs(t, 3, caps)] == words
        seen = []

        def visit(u, res):
            seen.append(u)
            return len(seen) < 5

        assert sweep_origin_graphs(t, 3, caps, visit) is None
        assert seen == words[:5]


def seen_set_repro(short_first):
    """On input a, p0 moves right to q directly, or to r, which turns on
    the right endmarker to s, which moves right to q two steps later.  The
    only run goes through q directly and takes 5 steps."""
    short = ("p0", "a", (), RIGHT, "q")
    detour = ("p0", "a", (), RIGHT, "r")
    trans = (("i", LMARK, (), RIGHT, "p0"),) + ((short, detour) if short_first else (detour, short))
    trans += (("r", RMARK, (), LEFT, "s"),
              ("s", "a", (), RIGHT, "q"),
              ("q", RMARK, (), LEFT, "t1"),
              ("t1", "a", ("a",), RIGHT, "t2"),
              ("t2", RMARK, (), LEFT, "f"))
    return TwoWayTransducer({"i", "p0", "q", "r", "s", "t1", "t2", "f"}, {"a"}, {"a"},
                            trans, {"i"}, {"f"})


@pytest.mark.parametrize("short_first", [True, False])
def test_2nt_longer_path_does_not_shadow_a_run(short_first):
    t = seen_set_repro(short_first)
    for steps in (5, 6):
        assert graphs_of(t, "a", RunCaps(3, steps)) == {(("a",), (1,))}
    assert graphs_of(t, "a", RunCaps(3, 4)) == set()


@given(two_way_machines(), st.integers(3, 12))
def test_2nt_graphs_independent_of_transition_order(machines, steps):
    caps = RunCaps(3, steps)
    for u in words_upto({"a", "b"}, 3):
        results = [run_origin_graphs(t, u, caps) for t in machines]
        assert len({res.graphs for res in results}) == 1, u
        assert len({res.pruned for res in results}) == 1, u


@given(two_way_machines(), st.integers(1, 4), st.integers(3, 12))
def test_2nt_graphs_match_every_path_oracle(machines, max_out, steps):
    # graphs only: on loops the seen set keeps pruned from firing by design
    caps = RunCaps(max_out, steps)
    t = machines[2]
    for u in words_upto({"a", "b"}, 3):
        assert run_origin_graphs(t, u, caps).graphs == every_run_graphs(t, u, caps), u


@given(two_way_machines(), st.integers(1, 4), st.integers(3, 12))
def test_2nt_graphs_with_an_output_are_the_same_under_every_larger_output_cap(
        machines, max_out, steps):
    # a run that writes v never has more than |v| letters, and each
    # configuration is expanded at its least step count whatever the cap
    caps = RunCaps(max_out, steps)
    t = machines[1]
    for u in words_upto({"a", "b"}, 3):
        graphs = run_origin_graphs(t, u, caps).graphs
        for v in {g.output for g in graphs}:
            want = {g for g in graphs if g.output == v}
            small = RunCaps(max(1, len(v)), steps)
            assert {g for g in run_origin_graphs(t, u, small).graphs if g.output == v} == want
            assert {g for g in every_run_graphs(t, u, small) if g.output == v} == want


@given(st.data(), two_way_machines())
def test_2nt_memo_answers_match_the_oracle_and_fresh_runs(data, machines):
    # one machine answers every (input, caps) key, in a drawn order, then
    # drawn keys again from its memo; each answer is the every-path
    # oracle's graphs and the result of a fresh run on a rebuilt copy
    t = machines[2]
    caps = data.draw(st.lists(st.builds(RunCaps, st.integers(1, 3), st.integers(3, 10)),
                              min_size=2, max_size=3, unique=True))
    keys = [(u, c) for u in words_upto({"a", "b"}, 2) for c in caps]
    order = data.draw(st.permutations(keys)) + data.draw(st.lists(st.sampled_from(keys),
                                                                  max_size=6))
    for u, c in order:
        got = run_origin_graphs(t, u, c)
        fresh = _run_2nt(rebuilt(t), u, c)
        assert (got.graphs, got.pruned) == (fresh.graphs, fresh.pruned), (u, c)
        assert got.graphs == every_run_graphs(t, u, c), (u, c)
    # the memo is no field
    copy = rebuilt(t)
    assert (t == copy, hash(t), repr(t)) == (True, hash(copy), repr(copy))


@given(st.data(), one_way_machines())
def test_partner_order_independent_of_transition_order(data, t):
    # the search meets targets in the repr order of their transitions, so
    # reversing or shuffling the transitions keeps the sequence; renaming
    # the states keeps the set
    twins = data.draw(variants(t))
    for u in words_upto(LETTERS, 2):
        for v in [()] + list(words_upto(LETTERS, 2)):
            got = [list(enumerate_matching_graphs(twin, u, v)) for twin in twins]
            assert got[1] == got[0] and got[2] == got[0], (u, v)
            assert set(got[3]) == set(got[0]), (u, v)


def test_partner_order_follows_the_repr_of_transitions():
    # two eps moves out of p write nothing: the search tries q, whose run
    # writes on the a, before r, whose run writes on the b, in either order
    trans = (("p", EPS, (), "r"), ("p", EPS, (), "q"), ("q", "a", ("a",), "q1"),
             ("q1", "b", (), "f"), ("r", "a", (), "r1"), ("r1", "b", ("a",), "f"))
    for order in (trans, trans[::-1]):
        t = OneWayTransducer({"p", "q", "q1", "r", "r1", "f"}, {"a", "b"}, {"a"}, order,
                             {"p"}, {"f"})
        assert list(enumerate_matching_graphs(t, "ab", "a")) == [(1,), (2,)]


@given(one_way_machines())
def test_partner_enumeration_matches_run_enumeration(t):
    # every output word up to length 2, written or not; the index kept on
    # t answers as a copy's first index does
    for u in words_upto(LETTERS, 2):
        for v in [()] + list(words_upto(LETTERS, 2)):
            got = list(enumerate_matching_graphs(t, u, v))
            assert len(got) == len(set(got)), (u, v)
            assert set(got) == partners(t, u, v), (u, v)
            assert list(enumerate_matching_graphs(rebuilt(t), u, v)) == got
