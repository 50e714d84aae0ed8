import itertools
import os
import pathlib
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from origami.automata import (Diagrams, GuardedNfa, StructuredAlphabet, StructuredNfa,
                              intersect, union, ambiguity_class, ambiguity_report,
                              language_equal_upto, AlphabetMismatchError, UnknownTrackError,
                              FINITE, POLY, EXP, _closure)

import explicit_automata as ref
from explicit_automata import same_automaton
from test_mso import formula_cases


def nfa(base, tracks, states, initial, final, trans):
    return StructuredNfa(StructuredAlphabet(frozenset(base), tracks),
                         frozenset(states), frozenset(initial), frozenset(final),
                         tuple(trans))


def letters(base, tracks=0):
    return [(a, bits) for a in sorted(base)
            for bits in itertools.product((0, 1), repeat=tracks)]


@pytest.fixture
def contains_a():
    # words over {a, b} with at least one a
    return nfa("ab", (), "pq", "p", "q", [
        ("p", ("a", ()), "q"), ("p", ("b", ()), "p"),
        ("q", ("a", ()), "q"), ("q", ("b", ()), "q"),
    ])


def test_accepts_and_empty(contains_a):
    assert contains_a.accepts([("b", ()), ("a", ())])
    assert not contains_a.accepts([("b", ()), ("b", ())])
    assert not contains_a.is_empty()


def test_intersection_with_complement_is_empty(contains_a):
    assert intersect(contains_a, contains_a.complement()).is_empty()


def test_find_witness_shortest_lex(contains_a):
    assert contains_a.find_witness() == (("a", ()),)


def test_union_and_de_morgan(contains_a):
    only_b = contains_a.complement()
    u = union(contains_a, only_b)
    assert u.determinize().final  # accepts everything non-trivially
    lhs = u.complement()
    rhs = intersect(contains_a.complement(), only_b.complement())
    assert language_equal_upto(lhs, rhs, 5)


def test_determinize_preserves_language(contains_a):
    det = contains_a.determinize()
    assert det.is_deterministic_complete()
    assert language_equal_upto(contains_a, det, 8)


def test_deterministic_complete_needs_every_letter_at_every_state():
    full = [(p, ltr, p) for p in "pq" for ltr in letters("ab", 1)]
    assert nfa("ab", ("x",), "pq", "p", "q", full).is_deterministic_complete()
    assert nfa("ab", ("x",), "pq", "p", "q", full + full[:2]).is_deterministic_complete()
    assert not nfa("ab", ("x",), "pq", "p", "q", full[1:]).is_deterministic_complete()
    clash = full + [("p", ("a", (0,)), "q")]
    assert not nfa("ab", ("x",), "pq", "p", "q", clash).is_deterministic_complete()


def test_project_track_gives_contains_a(contains_a):
    # compiled form of "exists x. x in X & a(x)" projected on X equals the
    # plain contains-an-a automaton (checked via symmetric difference)
    from origami.mso import parse_formula, mso_compile
    auto = mso_compile(parse_formula("exists x. (x in X & a(x))"), ("X",), "ab")
    projected = auto.project_track("X")
    sym1 = intersect(projected, contains_a.complement())
    sym2 = intersect(contains_a, projected.complement())
    assert sym1.is_empty() and sym2.is_empty()


def test_alphabet_mismatch_raises(contains_a):
    other = nfa("ac", (), "p", "p", "p", [("p", ("a", ()), "p")])
    with pytest.raises(AlphabetMismatchError):
        intersect(contains_a, other)


def test_track_bits_validated():
    with pytest.raises(AlphabetMismatchError):
        nfa("a", ("x",), "p", "p", "p", [("p", ("a", ()), "p")])


def _plain_letter_check(alpha, letter):
    # the letter test without the cached letter set
    a, bits = letter
    return a in alpha.base and len(bits) == len(alpha.tracks) and all(b in (0, 1) for b in bits)


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as e:  # the kind of error is part of the contract
        return type(e)


def test_letter_validation_kinds():
    alpha = StructuredAlphabet(frozenset("ab"), ("x", "y"))
    good = [("a", (0, 1)), ("b", (True, False)), ("a", [1, 0]), ["b", (0, 0)]]
    bad = [
        ("c", (0, 1)),        # base letter outside the alphabet
        ("a", (0,)),          # too few bits
        ("a", (0, 1, 0)),     # too many bits
        ("a", (0, 2)),        # a bit that is not 0 or 1
        ("a", [0, 2]),        # the same in unhashable list bits
        ("a", "01"),          # bits that are not numbers
        ("a", 1),             # bits that are not a sequence
        ("a",),               # not a (base, bits) pair
        [["a"], (0, 1)],      # unhashable base letter
    ]
    for letter in good + bad:
        assert _outcome(alpha.contains_letter, letter) == \
            _outcome(_plain_letter_check, alpha, letter), letter
    assert all(alpha.contains_letter(letter) is True for letter in good)
    for letter in bad[:6]:
        with pytest.raises(AlphabetMismatchError):
            StructuredNfa(alpha, {"p"}, {"p"}, {"p"}, (("p", letter, "p"),))
    n = StructuredNfa(alpha, {"p"}, {"p"}, {"p"}, (("p", ("a", (0, 1)), "p"),))
    # the same language as a step table: the subset construction's DFA, minimized
    dfa = GuardedNfa.from_nfa(n).minimize().to_dfa()
    for m in (n, dfa):
        for letter in bad[:6]:
            with pytest.raises(AlphabetMismatchError):
                m.accepts([("a", (0, 1)), letter])
        # a letter gets the answer of its tuple form, as a word's first
        # letter and after a step
        for letter in good:
            tuple_form = (letter[0], tuple(letter[1]))
            for prefix in ([], [("a", (0, 1))], [("b", (1, 1))]):
                assert m.accepts(prefix + [letter]) == m.accepts(prefix + [tuple_form]), letter
        assert [m.accepts([letter]) for letter in good] == [True, False, False, False]
        for letter in bad[6:]:
            assert _outcome(m.accepts, [letter]) == _outcome(alpha.contains_letter, letter)


def test_delta_is_read_only_and_pickles(contains_a):
    d = contains_a.delta()
    assert d[("p", ("a", ()))] == ("q",)
    with pytest.raises(TypeError):
        d[("p", ("a", ()))] = {"p"}
    with pytest.raises(AttributeError):
        d[("p", ("a", ()))].add("p")
    assert contains_a.accepts([("a", ())]) and not contains_a.accepts([("b", ())])
    # process pools pickle automata whose map is already built
    again = pickle.loads(pickle.dumps(contains_a))
    assert again == contains_a and again.delta() == d


def test_step_dfa_compares_hashes_prints_and_pickles_as_its_explicit_automaton():
    g = GuardedNfa.from_nfa(nfa("ab", ("x",), "pq", "p", "q", [
        ("p", ("a", (1,)), "q"), ("p", ("b", (0,)), "p"), ("q", ("a", (0,)), "q")])).minimize()
    explicit = g.to_nfa()
    for read_first in (False, True):
        d = g.to_dfa()
        if read_first:
            assert d.transitions == explicit.transitions
        # pickled before and after anything read the transitions
        again = pickle.loads(pickle.dumps(d))
        assert d == explicit and explicit == d and again == explicit and explicit == again
        assert not d != explicit and not explicit != d
        assert hash(d) == hash(explicit) == hash(again)
        assert repr(d) == repr(explicit) == repr(again)
        assert len({d, explicit, again}) == 1
        assert d != g.complement().to_nfa() and d != "d"
        assert d.accepts([("a", (1,)), ("a", (0,))]) and again.accepts([("a", (1,))])
        assert not again.accepts([("b", (1,))])


@st.composite
def small_nfas(draw):
    tracks = ("x",)
    states = range(draw(st.integers(1, 3)))
    letters_ = letters("ab", len(tracks))
    trans = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(letters_),
                                    st.sampled_from(states)), max_size=10))
    return nfa("ab", tracks, states, draw(st.sets(st.sampled_from(states), min_size=1)),
               draw(st.sets(st.sampled_from(states))), trans)


@given(small_nfas(), st.permutations(["P", "x", "Q"]))
def test_extend_then_project_round_trip(n, tracks):
    wide = n.extend_tracks(tracks)
    assert wide.alphabet.tracks == tuple(tracks)
    ix = tracks.index("x")
    # the added bits are unconstrained
    for k in range(3):
        for w in itertools.product(wide.alphabet.letters(), repeat=k):
            assert wide.accepts(w) == n.accepts([(a, (bits[ix],)) for (a, bits) in w])
    assert language_equal_upto(wide.project_track("P").project_track("Q"), n, 4)


def test_extend_tracks_must_keep_every_track(contains_a):
    assert contains_a.extend_tracks(()) is contains_a
    with pytest.raises(UnknownTrackError):
        contains_a.extend_tracks(("x",)).extend_tracks(("y",))


def test_minimize_numbers_blocks_breadth_first():
    # breadth-first from the initial block, a before b: z=0, m=1, d=2, f=3
    n = nfa("ab", (), ["z", "m", "f", "d", "u"], ["z"], ["f", "u"], [
        ("z", ("a", ()), "m"), ("z", ("b", ()), "d"),
        ("m", ("a", ()), "f"), ("m", ("b", ()), "d"),
        ("f", ("a", ()), "d"), ("f", ("b", ()), "d"),
        ("d", ("a", ()), "d"), ("d", ("b", ()), "d"),
        # a complete DFA may keep an unreachable state: its block comes last
        ("u", ("a", ()), "u"), ("u", ("b", ()), "u"),
    ]).minimize()
    assert n.initial == {0} and n.final == {3, 4}
    assert set(n.transitions) == {
        (0, ("a", ()), 1), (0, ("b", ()), 2), (1, ("a", ()), 3), (1, ("b", ()), 2),
        (2, ("a", ()), 2), (2, ("b", ()), 2), (3, ("a", ()), 2), (3, ("b", ()), 2),
        (4, ("a", ()), 4), (4, ("b", ()), 4)}


# -- ambiguity ----------------------------------------------------------------

def test_dfa_is_finite(contains_a):
    assert ambiguity_class(contains_a.determinize()) == FINITE


def test_ida_pattern_polynomial():
    n = nfa("a", (), "pq", "p", "q", [
        ("p", ("a", ()), "p"), ("p", ("a", ()), "q"), ("q", ("a", ()), "q"),
    ])
    rep = ambiguity_report(n)
    assert rep.kind == POLY
    # brute force: run count on a^k grows linearly
    w = [("a", ())] * 6
    counts = [n.count_accepting_runs(w[:k]) for k in range(1, 7)]
    assert counts == [1, 2, 3, 4, 5, 6]


def test_parallel_self_loops_exponential():
    alpha = StructuredAlphabet(frozenset("a"), ())
    n = StructuredNfa(alpha, {"p"}, {"p"}, {"p"},
                      (("p", ("a", ()), "p"), ("p", ("a", ()), "p")))
    rep = ambiguity_report(n)
    assert rep.kind == EXP
    counts = [n.count_accepting_runs([("a", ())] * k) for k in range(1, 6)]
    assert counts == [2, 4, 8, 16, 32]


def test_exponential_pump_found_off_the_diagonal():
    # the two runs part at state 1, not at the diagonal state 0, and meet
    # again one letter later: the pump reaches the split and comes back
    n = nfa("ab", (), [0, 1, 2, 3], [0], [0], [
        (0, ("a", ()), 1), (1, ("b", ()), 2), (1, ("b", ()), 3),
        (2, ("b", ()), 0), (3, ("b", ()), 0),
    ])
    rep = ambiguity_report(n)
    assert rep.kind == EXP and rep.states == (0,)
    assert rep.pump == (("a", ()), ("b", ()), ("b", ()))
    counts = [n.count_accepting_runs(rep.pump * k) for k in range(1, 5)]
    assert counts == [2, 4, 8, 16]


@st.composite
def plain_nfas(draw):
    states = range(draw(st.integers(1, 3)))
    trans = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(letters("ab")),
                                    st.sampled_from(states)), max_size=8))
    return nfa("ab", (), states, draw(st.sets(st.sampled_from(states), min_size=1)),
               draw(st.sets(st.sampled_from(states))), trans)


@given(plain_nfas())
@example(nfa("ab", (), [0, 1, 2], [0], [2], [
    (0, ("a", ()), 0), (0, ("b", ()), 1), (1, ("a", ()), 2), (1, ("b", ()), 1)]))
def test_find_witness_is_the_least_shortest_word(n):
    # a shortest accepted word visits each set of states at most once, and
    # three states make seven non-empty sets
    words = (w for k in range(8) for w in itertools.product(letters("ab"), repeat=k))
    assert n.find_witness() == next((w for w in words if n.accepts(w)), None)


def test_empty_automaton_finite():
    n = nfa("a", (), "p", "p", [], [])
    assert ambiguity_class(n) == FINITE


AMBIGUITY_REPORTS = """
import random
from origami.automata import StructuredAlphabet, StructuredNfa, ambiguity_report

rng = random.Random(0)
alphabet = StructuredAlphabet(frozenset("ab"), ("t",))
letters = list(alphabet.letters())
for _ in range(300):
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    trans = [(rng.choice(states), rng.choice(letters), rng.choice(states))
             for _ in range(rng.randint(1, 12))]
    print(ambiguity_report(StructuredNfa(
        alphabet, states, rng.sample(states, rng.randint(1, len(states))),
        rng.sample(states, rng.randint(1, len(states))), tuple(trans))))
"""


def test_ambiguity_report_independent_of_hash_seed():
    # string states and letters once made the pump words and states follow
    # set order: hash seeds 0, 1 and 2 gave three different reports
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    outs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-c", AMBIGUITY_REPORTS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1] == outs[2]
    for kind in (FINITE, POLY, EXP):
        assert f"kind='{kind}'" in outs[0]


def test_finite_class_has_stable_run_counts(contains_a):
    # exhaustive sweep: new maxima stop appearing
    rep = ambiguity_report(contains_a)
    assert rep.kind == FINITE
    best = 0
    history = []
    for k in range(0, 10):
        m = max((contains_a.count_accepting_runs(w)
                 for w in itertools.product(letters("ab"), repeat=k)), default=0)
        best = max(best, m)
        history.append(best)
    assert history[-1] == history[4]


@given(st.integers(min_value=1, max_value=4))
def test_count_runs_matches_path_enumeration(k):
    n = nfa("a", (), "pq", "p", "q", [
        ("p", ("a", ()), "p"), ("p", ("a", ()), "q"), ("q", ("a", ()), "q"),
    ])
    word = [("a", ())] * k
    # enumerate run paths by brute force
    def runs(state, rest):
        if not rest:
            return 1 if state in n.final else 0
        total = 0
        for (p, a, q) in n.transitions:
            if p == state and a == rest[0]:
                total += runs(q, rest[1:])
        return total
    assert n.count_accepting_runs(word) == sum(runs(q, word) for q in n.initial)


# -- diagram operations against the explicit-letter reference ------------------

STATE_NAMES = [0, 1, 2, "p", ("q", 1), frozenset({"r"})]
ALPHABETS = st.builds(StructuredAlphabet, st.sampled_from([frozenset("a"), frozenset("ab"),
                                                           frozenset("abc")]),
                      st.sampled_from([(), ("x",), ("x", "Y")]))


@st.composite
def nfas_over(draw, alpha):
    """Up to four states with names of mixed types; either a random NFA
    with frequent parallel edges or a complete DFA, whose states need not
    all be reachable."""
    states = draw(st.lists(st.sampled_from(STATE_NAMES), min_size=1, max_size=4, unique=True))
    letters_ = list(alpha.letters())
    if draw(st.booleans()):
        trans = [(p, a, draw(st.sampled_from(states))) for p in states for a in letters_]
        initial = {draw(st.sampled_from(states))}
    else:
        trans = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(letters_),
                                        st.sampled_from(states)), max_size=12))
        if trans:
            trans += draw(st.lists(st.sampled_from(trans), max_size=3))
        initial = draw(st.sets(st.sampled_from(states), min_size=1))
    return StructuredNfa(alpha, states, initial, draw(st.sets(st.sampled_from(states))), trans)


def assert_operations_match_reference(n, m):
    assert same_automaton(n.determinize(), ref.determinize(n))
    assert same_automaton(n.complement(), ref.complement(n))
    assert same_automaton(n.minimize(), ref.minimize(n))
    # the minimized DFA's transitions come in the explicit construction's order
    assert n.minimize().transitions == ref.minimize(n).transitions
    assert same_automaton(intersect(n, m), ref.intersect(n, m))
    dd = Diagrams(n.alphabet.base)
    product = GuardedNfa.from_nfa(n, dd).product(GuardedNfa.from_nfa(m, dd)).to_nfa()
    assert same_automaton(product, ref.product(n, m))
    assert same_automaton(union(n, m), ref.union(n, m))
    for t in n.alphabet.tracks:
        assert same_automaton(n.project_track(t), ref.project_track(n, t))
    wider = ("Z",) + tuple(reversed(n.alphabet.tracks))
    assert same_automaton(n.extend_tracks(wider), ref.extend_tracks(n, wider))


@settings(max_examples=200)
@given(st.data(), ALPHABETS)
def test_diagram_operations_match_reference_on_random_nfas(data, alpha):
    assert_operations_match_reference(data.draw(nfas_over(alpha)), data.draw(nfas_over(alpha)))


@st.composite
def dfas_over(draw, alpha):
    """A DFA with one initial state and at most one target per letter, of
    one of four kinds: ``trimmed`` (a trimmed random DFA), ``reachable``
    (its reachable part, which may keep states that cannot accept),
    ``complete`` (every letter at every state, an unreachable state
    added) or ``partial`` (an unreachable state added, letters missing)."""
    kind = draw(st.sampled_from(["trimmed", "reachable", "complete", "partial"]))
    states = draw(st.lists(st.sampled_from(STATE_NAMES), min_size=2, max_size=5, unique=True))
    moves = states if kind == "complete" else states + [None]
    trans = [(p, a, q) for p in states for a in alpha.letters()
             for q in [draw(st.sampled_from(moves))] if q is not None]
    initial, extra = states[0], states[-1]
    if kind in ("complete", "partial"):
        # nothing enters the last state
        trans = [(p, a, initial if q == extra else q) for (p, a, q) in trans]
    n = StructuredNfa(alpha, states, {initial}, draw(st.sets(st.sampled_from(states))), trans)
    if kind == "trimmed":
        return n.trim()
    if kind == "reachable":
        fwd = {}
        for (p, _a, q) in trans:
            fwd.setdefault(p, set()).add(q)
        keep = _closure({initial}, fwd)
        return StructuredNfa(alpha, keep, {initial}, n.final & keep,
                             [t for t in trans if t[0] in keep])
    return n


@settings(max_examples=200)
@given(st.data(), ALPHABETS)
def test_diagram_operations_match_reference_on_partial_and_complete_dfas(data, alpha):
    n = data.draw(dfas_over(alpha))
    assert_operations_match_reference(n, data.draw(nfas_over(alpha)))
    g = GuardedNfa.from_nfa(n)
    reachable = len(_closure(n.initial, {p: {q for (s, _a, q) in n.transitions if s == p}
                                         for p in n.states})) == len(n.states)
    if len(n.initial) == 1 and reachable:
        # a partial DFA whose every state is reachable is minimized as it stands
        with mock.patch.object(GuardedNfa, "determinize", side_effect=AssertionError):
            assert g.minimize().to_nfa().transitions == ref.minimize(n).transitions


@settings(max_examples=100)
@given(st.data(), formula_cases())
def test_diagram_operations_match_reference_on_compiled_formulas(data, case):
    from origami.mso import mso_compile
    n = mso_compile(case[0], case[1], "ab")
    assert_operations_match_reference(n, data.draw(nfas_over(n.alphabet)))
