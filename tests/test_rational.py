import itertools
import random

import pytest
from hypothesis import given, strategies as st

from origami.transducers import OriginGraph, RunCaps
from origami.rational import (InterleavedWord, InterleaveError, RationalResync, RegexError,
                              RegexResync,
                              interleave, deinterleave, zip_pair,
                              rational_pair_accepts, parse_pair_regex,
                              make_rational_block, make_rational_shift,
                              make_rational_identity, contains_upto_rational,
                              atom, cat, alt, star, plus)
from origami.resync import make_shift, pair_in_resync
from origami.reduction import halt2, build_tiles, build_Tdown, build_Tup

from outcomes import outcome


SIG = ("a", "b")
GAM = ("c", "d")


def graph(u, v, orig):
    return OriginGraph(u, v, tuple(orig))


def test_paper_interleaving():
    # the block example: inputs aaabaab, outputs cdcd
    blue = graph("aaabaab", "cdcd", (1, 4, 5, 7))
    w = interleave(blue, SIG, GAM)
    assert "".join(w.word) == "acaabdacabd"
    red = graph("aaabaab", "cdcd", (3, 4, 6, 7))
    w2 = interleave(red, SIG, GAM)
    assert "".join(w2.word) == "aaacbdaacbd"


def test_empty_output_interleaves_to_input():
    g = graph("abba", "", ())
    assert interleave(g, SIG, GAM).word == g.input


def test_non_monotone_rejected():
    g = graph("aaa", "cc", (2, 1))
    with pytest.raises(InterleaveError):
        interleave(g, SIG, GAM)


def test_alphabets_must_be_disjoint():
    with pytest.raises(InterleaveError):
        InterleavedWord(("a",), ("a",), ("a", "c"))


def test_output_before_input_rejected():
    with pytest.raises(InterleaveError):
        InterleavedWord(("c", "a"), SIG, GAM)


def random_monotone_graph(rng, max_len=6):
    n = rng.randint(1, max_len)
    u = "".join(rng.choice("ab") for _ in range(n))
    m = rng.randint(0, max_len)
    v = "".join(rng.choice("cd") for _ in range(m))
    orig = sorted(rng.randint(1, n) for _ in range(m))
    return graph(u, v, orig)


RATIONAL_ROWS = [
    ("letter in neither alphabet", lambda: InterleavedWord(("a", "z"), SIG, GAM), InterleaveError),
    ("overlapping alphabets", lambda: RationalResync(SIG, SIG), InterleaveError),
    ("acceptor without a language",
     lambda: RationalResync(SIG, GAM).accepts_pairs(()), NotImplementedError),
    ("graphs with different words",
     lambda: rational_pair_accepts(make_rational_identity(SIG, GAM), graph("a", "c", [1]),
                                   graph("b", "c", [1]), SIG, GAM), InterleaveError),
    ("unknown regex node", lambda: RegexResync(object()), TypeError),
    ("trailing whitespace", lambda: parse_pair_regex("a/a c/c  ").nfa,
     parse_pair_regex("a/a c/c").nfa),
    ("trailing tokens", lambda: parse_pair_regex("a/a )"), RegexError),
    ("negative shift", lambda: make_rational_shift(-1, SIG, GAM), ValueError),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in RATIONAL_ROWS],
                         ids=[row[0] for row in RATIONAL_ROWS])
def test_rational_rows(call, expected):
    assert outcome(call) == expected


def test_round_trip_identity():
    rng = random.Random(29)
    for _ in range(200):
        g = random_monotone_graph(rng)
        assert deinterleave(interleave(g, SIG, GAM)) == g


def test_round_trip_words():
    rng = random.Random(31)
    for _ in range(100):
        g = random_monotone_graph(rng)
        w = interleave(g, SIG, GAM)
        assert deinterleave(w) == g
        assert interleave(deinterleave(w), SIG, GAM).word == w.word


# -- the block regex -----------------------------------------------------------

def test_block_regex_accepts_paper_pair():
    r = make_rational_block(SIG, GAM)
    blue = graph("aaabaab", "cdcd", (1, 4, 5, 7))
    red = graph("aaabaab", "cdcd", (3, 4, 6, 7))
    assert rational_pair_accepts(r, blue, red, SIG, GAM)


def test_block_regex_rejects_moved_b_origin():
    r = make_rational_block(SIG, GAM)
    blue = graph("aaabaab", "cdcd", (1, 4, 5, 7))
    red_bad = graph("aaabaab", "cdcd", (3, 5, 6, 7))
    assert not rational_pair_accepts(r, blue, red_bad, SIG, GAM)


def test_block_regex_accepted_pairs_are_well_formed():
    nfa = make_rational_block(SIG, GAM).nfa
    delta = nfa.delta()
    accepted = []

    def walk(states, w):
        # every accepted pair word up to length 10, by the subset walk
        if states & nfa.final:
            accepted.append(w)
        if len(w) == 10:
            return
        for pair in sorted(nfa.alphabet.base):
            letter = (pair, ())
            nxt = frozenset(q for s in states for q in delta.get((s, letter), ()))
            if nxt:
                walk(nxt, w + (pair,))

    walk(frozenset(nfa.initial), ())
    assert accepted
    for w in accepted:
        first = tuple(x for (x, _y) in w)
        second = tuple(y for (_x, y) in w)
        for proj in (SIG, GAM):
            keep = set(proj)
            assert tuple(c for c in first if c in keep) == \
                tuple(c for c in second if c in keep)


# pair letters of the random regexes; the last one is in none of them
PAIRS = (("a", "a"), ("a", "c"), ("c", "a"), ("c", "c"), ("b", "d"), ("d", "b"))


def _ends_atom(p):
    return lambda w, i: {i + 1} if i < len(w) and w[i] == p else set()


def _ends_cat(parts):
    def ends(w, i):
        out = {i}
        for part in parts:
            out = {k for j in out for k in part(w, j)}
        return out
    return ends


def _ends_alt(parts):
    return lambda w, i: {k for part in parts for k in part(w, i)}


def _ends_star(body):
    def ends(w, i):
        out, frontier = {i}, {i}
        while frontier:
            frontier = {k for j in frontier for k in body(w, j)} - out
            out |= frontier
        return out
    return ends


def _combined(op, ends):
    return lambda parts: (op(*(ast for (ast, _m) in parts)), ends([m for (_ast, m) in parts]))


def pair_regexes():
    """(AST, matcher) over all pairs but the last.  matcher(w, i) is the
    set of positions where a match of the regex that starts at i in the
    pair word w can end."""
    leaves = st.sampled_from(PAIRS[:-1]).map(lambda p: (atom(*p), _ends_atom(p)))

    def extend(kids):
        return st.one_of(
            st.lists(kids, max_size=3).map(_combined(cat, _ends_cat)),
            st.lists(kids, min_size=1, max_size=3).map(_combined(alt, _ends_alt)),
            kids.map(lambda k: (star(k[0]), _ends_star(k[1]))),
            kids.map(lambda k: (plus(k[0]), _ends_cat([k[1], _ends_star(k[1])]))))

    return st.recursive(leaves, extend, max_leaves=8)


@given(pair_regexes())
def test_compiled_pair_regex_matches_position_matcher(regex):
    ast, ends = regex
    words = [w for n in range(5) for w in itertools.product(PAIRS, repeat=n)]
    try:
        r = RegexResync(ast)
    except RegexError:
        # refused only without atoms, so it matches no letter
        assert not any(ends(w, 0) - {0} for w in words)
        return
    for w in words:
        assert r.accepts_pairs(w) == (len(w) in ends(w, 0)), w


def test_regex_parser_and_errors():
    r = parse_pair_regex("(a/a)(c/c) + (b/b)(d/d)")
    assert r.accepts_pairs((("a", "a"), ("c", "c")))
    assert r.accepts_pairs((("b", "b"), ("d", "d")))
    assert not r.accepts_pairs((("a", "a"), ("d", "d")))
    star = parse_pair_regex("(a/a)*")
    assert star.accepts_pairs(())
    assert star.accepts_pairs((("a", "a"),) * 3)
    for bad in ["(a/a", "a//b", "*", "a/a +"]:
        with pytest.raises(RegexError):
            parse_pair_regex(bad)


# -- shifts ----------------------------------------------------------------------

def test_shift0_accepts_exactly_identical():
    r = make_rational_shift(0, SIG, GAM)
    g = graph("ab", "cd", (1, 2))
    assert rational_pair_accepts(r, g, g, SIG, GAM)
    g2 = graph("ab", "cd", (1, 1))
    assert not rational_pair_accepts(r, g, g2, SIG, GAM)
    assert rational_pair_accepts(make_rational_identity(SIG, GAM), g2, g2, SIG, GAM)


def test_shift_semantics_against_regular():
    rng = random.Random(37)
    rat = make_rational_shift(2, SIG, GAM)
    reg = make_shift(2, base=SIG)
    checked = 0
    for _ in range(200):
        g1 = random_monotone_graph(rng, 5)
        displacements = [rng.randint(0, 3) for _ in g1.orig]
        orig2 = [max(1, o - d) for (o, d) in zip(g1.orig, displacements)]
        if orig2 != sorted(orig2):
            continue
        g2 = graph(g1.input, g1.output, orig2)
        rat_ok = rational_pair_accepts(rat, g1, g2, SIG, GAM)
        reg_ok = pair_in_resync(reg, g1, g2) is not None
        assert rat_ok == reg_ok, (g1, g2)
        checked += 1
    assert checked > 100


def test_shift_matches_the_direct_rule_on_every_small_pair():
    # every input over {a, b} up to length 4, output over {c, d} up to
    # length 3 and pair of nondecreasing origin tuples: shift(k) accepts
    # exactly when every output's first origin is 0..k past its second
    shifts = [make_rational_shift(k, SIG, GAM) for k in range(4)]
    checked = 0
    for n in range(1, 5):
        for m in range(4):
            origs = list(itertools.combinations_with_replacement(range(1, n + 1), m))
            for u in itertools.product(SIG, repeat=n):
                for v in itertools.product(GAM, repeat=m):
                    for o1, o2 in itertools.product(origs, repeat=2):
                        g1, g2 = graph(u, v, o1), graph(u, v, o2)
                        gaps = [x - y for x, y in zip(o1, o2)]
                        for k, r in enumerate(shifts):
                            want = all(0 <= d <= k for d in gaps)
                            assert rational_pair_accepts(r, g1, g2, SIG, GAM) == want, (g1, g2, k)
                            checked += 1
    assert checked == 266216


def test_shift_rejects_pair_words_whose_components_disagree():
    # words of pair letters that zip no two interleavings of equal words,
    # which the rule above never meets: the components write different
    # letters, read different letters, or the first reads k + 2 letters
    # ahead while the second holds a letter of neither alphabet (over the
    # alphabets, an output k + 1 letters old is rejected first)
    r = make_rational_shift(1, SIG, GAM)
    assert r.accepts_pairs((("a", "a"), ("c", "c")))
    assert not r.accepts_pairs((("a", "a"), ("c", "d")))
    assert not r.accepts_pairs((("a", "b"),))
    assert not r.accepts_pairs((("a", "c"), ("c", "c"), ("a", "c")))
    assert not r.accepts_pairs((("a", "#"),) * 3 + (("#", "a"),) * 3)


def test_zip_pair_requires_equal_words():
    w1 = interleave(graph("ab", "c", (1,)), SIG, GAM)
    w2 = interleave(graph("ab", "cd", (1, 2)), SIG, GAM)
    with pytest.raises(InterleaveError):
        zip_pair(w1, w2)


# -- rational containment ----------------------------------------------------------

def test_identity_rational_self_containment(t_one_two):
    r = make_rational_identity(("a",), ("x",))
    # rename outputs so input and output alphabets stay disjoint
    from origami.transducers import OneWayTransducer, EPS
    t = OneWayTransducer(
        {"p0", "p1"}, {"a"}, {"x"},
        (("p0", "a", ("x",), "p0"), ("p0", EPS, (), "p1"), ("p1", "a", ("x", "x"), "p1")),
        {"p0"}, {"p1"})
    verdict = contains_upto_rational(t, t, r, 3, RunCaps(8, 40))
    assert verdict.holds


def test_two_way_inputs_rejected(t_id):
    with pytest.raises(InterleaveError):
        contains_upto_rational(t_id, t_id, make_rational_identity(("a",), ("b",)),
                               2, RunCaps(4, 20))


def test_down_in_shift_rational_of_up():
    tiles = build_tiles(halt2())
    tdown, tup = build_Tdown(tiles), build_Tup(tiles)
    sig = tuple(sorted(tdown.input_alphabet))
    gam = tuple(sorted(tdown.output_alphabet))
    r = make_rational_shift(5, sig, gam)
    verdict = contains_upto_rational(tdown, tup, r, 2, RunCaps(2 + 4 * 2, 40))
    assert verdict.holds
    ident = make_rational_identity(sig, gam)
    verdict = contains_upto_rational(tdown, tup, ident, 2, RunCaps(2 + 4 * 2, 40))
    assert not verdict.holds


def test_rational_shift_acceptance_bounds_displacement():
    rng = random.Random(41)
    rat = make_rational_shift(2, SIG, GAM)
    for _ in range(150):
        g1 = random_monotone_graph(rng, 5)
        orig2 = sorted(max(1, o - rng.randint(0, 4)) for o in g1.orig)
        g2 = graph(g1.input, g1.output, orig2)
        if rational_pair_accepts(rat, g1, g2, SIG, GAM):
            assert all(0 <= a - b <= 2 for (a, b) in zip(g1.orig, g2.orig))
