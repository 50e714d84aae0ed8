import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from origami.automata import (StructuredNfa, ambiguity_report, language_equal_upto,
                              FINITE)
from origami.mso import (Top, Letter, Leq, Lt, Succ, First, Last, InSet, Or, Not, Exists,
                         parse_formula, is_second_order)
from origami.transducers import OriginGraph
from origami.resync import (Resynchronizer, ResyncWitness, ResyncError,
                            pair_in_resync, check_witness,
                            is_bounded, bounded_by, compose, simplify_extended,
                            extended_pair_in_resync, ExtendedResynchronizer,
                            make_identity, make_universal, make_pm1, make_shift,
                            make_first, make_param_example, make_block, make_Rk,
                            make_first_to_last)


A6B6 = ("aaaaaa", "bbbbbb")


def pair_in_resync_bruteforce(resync, sigma, sigma_p):
    """Oracle: try every parameter valuation, rows position by position in
    lexicographic order, so the first hit is ``pair_in_resync``'s least
    valuation; exponential in m * |u|."""
    u = sigma.input
    pairs = {(sigma.orig[t], sigma_p.orig[t]) for t in range(len(sigma.output))}
    for rows in itertools.product(itertools.product((0, 1), repeat=resync.m), repeat=len(u)):
        combo = tuple(tuple(r[i] for r in rows) for i in range(resync.m))
        if all(resync.gamma_holds(u, combo, xh, yh) for (xh, yh) in pairs):
            return ResyncWitness(combo)
    return None


def graph(u, v, orig):
    return OriginGraph(u, v, tuple(orig))


def test_pm1_figure_pair_accepted():
    s = graph(*A6B6, (1, 2, 3, 4, 5, 6))
    sp = graph(*A6B6, (2, 3, 4, 5, 4, 5))
    assert pair_in_resync(make_pm1(base="a"), s, sp) is not None


def test_identity_reflexive():
    r = make_identity(base="ab")
    for orig in [(1, 1, 2), (3, 2, 1)]:
        g = graph("aba", "bbb", orig)
        w = pair_in_resync(r, g, g)
        assert w is not None and w.params == ()


def test_param_example_witness():
    r = make_param_example(base="a")
    s = graph(*A6B6, (1, 2, 3, 3, 5, 6))
    sp = graph(*A6B6, (1, 2, 2, 6, 5, 6))
    w = pair_in_resync(r, s, sp)
    assert w is not None and w.param_sets() == (frozenset({3}),)
    # a second moved origin needs a different parameter value: rejected
    sp_bad = graph(*A6B6, (1, 2, 2, 6, 4, 6))
    assert pair_in_resync(r, s, sp_bad) is None
    assert pair_in_resync_bruteforce(r, s, sp_bad) is None


def test_search_agrees_with_bruteforce_randomized():
    r = make_param_example(base="ab")
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        u = "".join(rng.choice("ab") for _ in range(n))
        m = rng.randint(0, 4)
        s = graph(u, "c" * m if False else "a" * m, [rng.randint(1, n) for _ in range(m)])
        sp = graph(u, s.output, [rng.randint(1, n) for _ in range(m)])
        got = pair_in_resync(r, s, sp)
        ref = pair_in_resync_bruteforce(r, s, sp)
        assert (got is None) == (ref is None)
        if got is not None:
            assert check_witness(r, s, sp, got)


def test_witness_soundness_and_least():
    r = make_param_example(base="a")
    s = graph(*A6B6, (1, 2, 3, 3, 5, 6))
    sp = graph(*A6B6, (1, 2, 2, 6, 5, 6))
    w = pair_in_resync(r, s, sp)
    assert check_witness(r, s, sp, w)
    ref = pair_in_resync_bruteforce(r, s, sp)
    # brute force enumerates position-major rows ascending as well
    assert w.params == ref.params


def test_mismatched_words_rejected():
    r = make_identity(base="ab")
    with pytest.raises(ResyncError):
        pair_in_resync(r, graph("ab", "a", (1,)), graph("ab", "b", (1,)))


def test_letters_outside_base_rejected():
    r = make_identity(base="a")
    with pytest.raises(ResyncError):
        pair_in_resync(r, graph("ab", "a", (1,)), graph("ab", "a", (1,)))


def test_long_input_does_not_recurse():
    r = make_param_example(base="ab")
    u = "ab" * 1000
    s = graph(u, "aaa", (1, 2000, 7))
    sp = graph(u, "aaa", (1, 1000, 7))
    w = pair_in_resync(r, s, sp)
    assert w is not None and w.param_sets() == (frozenset({2000}),)
    assert pair_in_resync(r, s, graph(u, "aaa", (2, 1000, 7))) is None


def _iff(a, b):
    return f"(({a}) -> ({b})) & (({b}) -> ({a}))"


# I = {last} and J empty, or I empty and J = {first}: on "aa" the least
# valuation position-major is I = {2}, parameter-major it is J = {1}
LAST_OR_FIRST = parse_formula(
    f"x = y & (((forall z. ({_iff('z in I', 'last(z)')})) & (forall z. !(z in J)))"
    f" | ((forall z. !(z in I)) & (forall z. ({_iff('z in J', 'first(z)')}))))")


def test_bruteforce_order_is_position_major():
    r = Resynchronizer(("I", "J"), LAST_OR_FIRST, base="a")
    g = graph("aa", "a", (1,))
    assert pair_in_resync(r, g, g).params == ((0, 1), (0, 0))
    assert pair_in_resync_bruteforce(r, g, g).params == ((0, 1), (0, 0))


@st.composite
def gamma_cases(draw):
    """A gamma over one or two parameters and (x, y), drawn like
    test_mso's formula_cases; an input over {a, b} of length <= 4; two
    origin tuples for <= 3 output positions."""
    params = draw(st.sampled_from([("I",), ("I", "J")]))

    def gen(depth, scope):
        fo = ["x", "y"] + [v for v in scope if not is_second_order(v)]
        so = list(params) + [v for v in scope if is_second_order(v)]
        kinds = ["top", "letter", "leq", "lt", "succ", "first", "last", "in", "in"]
        if depth:
            kinds += ["or", "or", "not", "not"]
            if {"z", "Z"} - set(scope):
                kinds.append("exists")
        kind = draw(st.sampled_from(kinds))
        if kind == "top":
            return Top()
        if kind == "letter":
            return Letter(draw(st.sampled_from("ab")), draw(st.sampled_from(fo)))
        if kind in ("leq", "lt", "succ"):
            x, y = draw(st.sampled_from(fo)), draw(st.sampled_from(fo))
            if kind == "succ":
                return Succ(x, y, draw(st.integers(0, 2)))
            return Leq(x, y) if kind == "leq" else Lt(x, y)
        if kind in ("first", "last"):
            v = draw(st.sampled_from(fo))
            return First(v) if kind == "first" else Last(v)
        if kind == "in":
            return InSet(draw(st.sampled_from(fo)), draw(st.sampled_from(so)))
        if kind == "or":
            return Or(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "not":
            return Not(gen(depth - 1, scope))
        v = draw(st.sampled_from(sorted({"z", "Z"} - set(scope))))
        return Exists(v, gen(depth - 1, scope + (v,)))

    gamma = gen(4, ())
    n = draw(st.integers(1, 4))
    u = draw(st.text("ab", min_size=n, max_size=n))
    k = draw(st.integers(0, 3))
    orig = tuple(draw(st.integers(1, n)) for _ in range(2 * k))
    return params, gamma, u, orig[:k], orig[k:]


@given(gamma_cases())
@example((("I", "J"), LAST_OR_FIRST, "aa", (1,), (1,)))
@example((("I",), parse_formula("x in I"), "ab", (), ()))
# once a position is in I no continuation accepts: the DFA has a sink
@example((("I",), parse_formula("x = y & forall z. !(z in I)"), "ab", (1, 2), (1, 2)))
def test_generated_gammas_match_position_major_oracle(case):
    params, gamma, u, orig, orig_p = case
    r = Resynchronizer(params, gamma, base="ab")
    s, sp = graph(u, "c" * len(orig), orig), graph(u, "c" * len(orig), orig_p)
    got = pair_in_resync(r, s, sp)
    ref = pair_in_resync_bruteforce(r, s, sp)
    assert (got is None) == (ref is None)
    if got is not None:
        assert got.params == ref.params
        assert check_witness(r, s, sp, got)


# -- boundedness ---------------------------------------------------------------

BOUNDED_BUILDERS = [
    make_identity, make_pm1, lambda: make_shift(3), lambda: make_Rk(2),
    make_param_example, make_block, make_first,
    lambda: simplify_extended(make_first_to_last()),
]


@pytest.mark.parametrize("builder", range(len(BOUNDED_BUILDERS)))
def test_builders_bounded(builder):
    assert is_bounded(BOUNDED_BUILDERS[builder]()).bounded


def test_universal_unbounded():
    res = is_bounded(make_universal())
    assert not res.bounded
    assert res.report is not None


def source_guessing_nfa(resync):
    """NFA over base x B^(m+1) whose accepting runs on (u, params, y)
    correspond one-to-one with the sources x accepted by gamma.

    States are (d, placed) over the determinized gamma; the x track is
    dropped and the single x bit is placed nondeterministically.
    """
    dfa, _delta = resync.gamma_dfa()
    alpha = dfa.alphabet.with_tracks(resync.params + ("y",))
    trans = []
    for (p, (a, bits), q) in dfa.transitions:
        row = bits[:resync.m] + bits[resync.m + 1:]
        if bits[resync.m] == 0:
            trans.append(((p, 0), (a, row), (q, 0)))
            trans.append(((p, 1), (a, row), (q, 1)))
        else:
            trans.append(((p, 0), (a, row), (q, 1)))
    states = {(s, f) for s in dfa.states for f in (0, 1)}
    init = {(next(iter(dfa.initial)), 0)}
    final = {(s, 1) for s in dfa.final}
    return StructuredNfa(alpha, states, init, final, tuple(trans)).trim()


@pytest.mark.parametrize("builder", range(len(BOUNDED_BUILDERS) + 2))
def test_is_bounded_matches_source_guessing_ambiguity(builder):
    r = (BOUNDED_BUILDERS + [make_universal, lambda: make_Rk(1)])[builder]()
    finite = ambiguity_report(source_guessing_nfa(r)).kind == FINITE
    assert is_bounded(r).bounded == finite


def test_bounded_by_pm1():
    assert bounded_by(make_pm1(), 2, 6) is None
    violation = bounded_by(make_pm1(), 1, 6)
    assert violation is not None
    assert len(violation.sources) >= 2
    # interior target with both neighbours as sources
    assert set(violation.sources) == {violation.target - 1, violation.target + 1}


def test_bounded_by_identity_and_universal():
    assert bounded_by(make_identity(), 1, 6) is None
    assert bounded_by(make_universal(), 3, 5) is not None


def test_shift3_bound_four():
    assert bounded_by(make_shift(3), 4, 6) is None
    assert bounded_by(make_shift(3), 3, 6) is not None


def test_rk_bound_from_construction():
    # 2k + 1 sources suffice for R_k
    assert bounded_by(make_Rk(2), 5, 5) is None


def test_is_bounded_agrees_with_sweeps():
    for builder in BOUNDED_BUILDERS:
        r = builder()
        d, _ = r.gamma_dfa()
        k = 2 * len(d.states)
        assert bounded_by(r, k, 5) is None
    # unbounded side: a violation exists at every small k
    for k in range(0, 4):
        assert bounded_by(make_universal(), k, k + 2) is not None


# -- composition -----------------------------------------------------------------

def test_compose_identity_neutral():
    r = make_pm1(base="a")
    c = compose(make_identity(base="a"), r)
    s = graph(*A6B6, (1, 2, 3, 4, 5, 6))
    sp = graph(*A6B6, (2, 3, 4, 5, 4, 5))
    assert pair_in_resync(c, s, sp) is not None


def test_compose_shift_covers_shift2():
    c = compose(make_shift(1, base="a"), make_shift(1, base="a"))
    s2 = make_shift(2, base="a")
    for n in range(1, 5):
        u = "a" * n
        for m in range(0, 3):
            v = "a" * m
            for o1 in itertools.product(range(1, n + 1), repeat=m):
                for o2 in itertools.product(range(1, n + 1), repeat=m):
                    g1, g2 = graph(u, v, o1), graph(u, v, o2)
                    if pair_in_resync(s2, g1, g2) is not None:
                        assert pair_in_resync(c, g1, g2) is not None


def test_compose_witnessed_chain_random():
    rng = random.Random(11)
    pm1 = make_pm1(base="a")
    c = compose(pm1, pm1)
    hits = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        u = "a" * n
        m = rng.randint(1, 4)
        v = "a" * m
        o3 = [rng.randint(1, n) for _ in range(m)]
        o2 = [o + rng.choice((-1, 1)) for o in o3]
        o1 = [o + rng.choice((-1, 1)) for o in o2]
        if not all(1 <= o <= n for o in o1 + o2):
            continue
        g1, g2, g3 = graph(u, v, o1), graph(u, v, o2), graph(u, v, o3)
        assert pair_in_resync(pm1, g2, g1) is not None
        assert pair_in_resync(pm1, g3, g2) is not None
        assert pair_in_resync(c, g3, g1) is not None
        hits += 1
    assert hits > 30


def test_compose_renames_clashing_params():
    r = make_param_example(base="a")
    c = compose(r, r)
    assert len(set(c.params)) == 2


def test_two_parameter_search_matches_bruteforce():
    r2 = compose(make_param_example(base="ab"), make_param_example(base="ab"))
    assert r2.m == 2
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(1, 5)
        u = "".join(rng.choice("ab") for _ in range(n))
        m = rng.randint(0, 4)
        g1 = graph(u, "a" * m, tuple(rng.randint(1, n) for _ in range(m)))
        g2 = graph(u, "a" * m, tuple(rng.randint(1, n) for _ in range(m)))
        got = pair_in_resync(r2, g1, g2)
        ref = pair_in_resync_bruteforce(r2, g1, g2)
        assert (got is None) == (ref is None)
        if got is not None:
            assert got.params == ref.params
            assert check_witness(r2, g1, g2, got)


# -- R_k family -------------------------------------------------------------------

def test_rk0_is_identity():
    r0 = make_Rk(0, base="a")
    ident = make_identity(base="a")
    a0 = r0.gamma_nfa()
    a1 = ident.gamma_nfa()
    assert language_equal_upto(a0.minimize(), a1.minimize(), 4)


def test_shift0_accepts_exactly_equal_origins():
    r = make_shift(0, base="a")
    g1 = graph("aaa", "aa", (1, 3))
    assert pair_in_resync(r, g1, g1) is not None
    g2 = graph("aaa", "aa", (1, 2))
    assert pair_in_resync(r, g1, g2) is None


def test_rk_monotone_in_k():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        u = "a" * n
        m = rng.randint(0, 4)
        v = "a" * m
        g1 = graph(u, v, [rng.randint(1, n) for _ in range(m)])
        g2 = graph(u, v, [rng.randint(1, n) for _ in range(m)])
        for k in range(0, 3):
            w = pair_in_resync(make_Rk(k, base="a"), g1, g2)
            if w is not None:
                bigger = ResyncWitness(w.params[:k] + ((0,) * n,)
                                       + w.params[k:] + ((0,) * n,))
                assert check_witness(make_Rk(k + 1, base="a"), g1, g2, bigger)
                break


# -- extended resynchronizers ---------------------------------------------------

def test_degenerate_extension_agrees_with_pm1():
    ext = ExtendedResynchronizer(gamma=make_pm1().gamma_formula,
                                 input_base="a", output_base="b")
    s = graph(*A6B6, (1, 2, 3, 4, 5, 6))
    sp = graph(*A6B6, (2, 3, 4, 5, 4, 5))
    assert extended_pair_in_resync(ext, s, sp) is not None
    simp = simplify_extended(ext)
    assert pair_in_resync(simp, s, sp) is not None


def test_first_to_last_example():
    ext = make_first_to_last()
    s = graph("abbaba", "cdddcc", (1, 1, 1, 1, 1, 1))
    sp = graph("abbaba", "cdddcc", (6, 6, 6, 6, 6, 6))
    assert extended_pair_in_resync(ext, s, sp) is not None
    assert extended_pair_in_resync(ext, sp, s) is None


def test_delta_constraint_rejects():
    # new origins must be nondecreasing between consecutive outputs
    ext = ExtendedResynchronizer(
        gamma=parse_formula("true"),
        delta=parse_formula("x <= y"),
        input_base="a", output_base="b")
    s = graph("aaa", "bb", (1, 1))
    inc = graph("aaa", "bb", (1, 2))
    dec = graph("aaa", "bb", (2, 1))
    assert extended_pair_in_resync(ext, s, inc) is not None
    assert extended_pair_in_resync(ext, s, dec) is None


def test_simplify_two_types_is_union():
    ext = ExtendedResynchronizer(
        gamma_by_type={("c",): parse_formula("x = y"), ("d",): parse_formula("y = x + 1")},
        input_base="a", output_base="cd")
    simp = simplify_extended(ext)
    direct = Resynchronizer((), parse_formula("(x = y) | (y = x + 1)"), base="a")
    assert language_equal_upto(simp.gamma_nfa().minimize(),
                               direct.gamma_nfa().minimize(), 4)


def test_accepted_extended_stays_accepted_after_simplify():
    rng = random.Random(5)
    ext = make_first_to_last()
    simp = simplify_extended(ext)
    for _ in range(40):
        n = rng.randint(1, 4)
        u = "".join(rng.choice("ab") for _ in range(n))
        m = rng.randint(0, 3)
        v = "".join(rng.choice("cd") for _ in range(m))
        s = graph(u, v, [rng.randint(1, n) for _ in range(m)])
        sp = graph(u, v, [rng.randint(1, n) for _ in range(m)])
        if extended_pair_in_resync(ext, s, sp) is not None:
            assert pair_in_resync(simp, s, sp) is not None


def test_pair_in_resync_empty_output():
    r = make_pm1(base="a")
    g = graph("aa", "", ())
    assert pair_in_resync(r, g, g) is not None


def _accepted_pair_traversals(r, max_len, max_out):
    from origami.traversal import max_traversal
    per_len = {}
    for n in range(1, max_len + 1):
        u = "a" * n
        worst = 0
        for m in range(0, max_out + 1):
            v = "a" * m
            for o1 in itertools.product(range(1, n + 1), repeat=m):
                g1 = graph(u, v, o1)
                for o2 in itertools.product(range(1, n + 1), repeat=m):
                    g2 = graph(u, v, o2)
                    if pair_in_resync(r, g1, g2) is not None:
                        worst = max(worst, max_traversal(g1, g2))
        per_len[n] = worst
    return per_len


def test_bounded_builders_have_limited_traversal_on_sweeps():
    # the empirical direction: pairs accepted by a bounded resynchronizer
    # keep a flat per-position traversal maximum as inputs grow
    for builder in (lambda: make_identity(base="a"), lambda: make_pm1(base="a"),
                    lambda: make_shift(2, base="a"), lambda: make_param_example(base="a")):
        r = builder()
        per_len = _accepted_pair_traversals(r, 4, 3)
        assert per_len[4] <= 3
        assert per_len[4] <= max(per_len[2], per_len[3])
    # contrast: the universal resynchronizer's accepted pairs grow
    per_len = _accepted_pair_traversals(make_universal(base="a"), 4, 3)
    assert per_len[4] > per_len[2]


@pytest.mark.parametrize("k,size", [(1, (5, 160)), (2, (9, 1152)), (3, (17, 8704))])
def test_rk_gamma_dfa_sizes(k, size):
    d, _ = make_Rk(k).gamma_dfa()
    assert (len(d.states), len(d.transitions)) == size
