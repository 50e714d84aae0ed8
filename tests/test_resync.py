import functools
import itertools
import os
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from origami.automata import (AlphabetMismatchError, GuardedNfa, StructuredAlphabet,
                              StructuredNfa, ambiguity_report, language_equal_upto, FINITE,
                              _closure, _scc)
from origami.formats import parse_resynchronizer
from origami.mso import (Top, Letter, Leq, Lt, Succ, First, Last, InSet, Or, Not, Exists,
                         f_and, parse_formula, is_second_order, evaluate, compile_guarded)
from origami.transducers import OriginGraph
from origami.resync import (Resynchronizer, ResyncWitness, ResyncError,
                            pair_in_resync, check_witness, rename_free,
                            is_bounded, bounded_by, BoundViolation, compose,
                            simplify_extended,
                            extended_pair_in_resync, ExtendedResynchronizer,
                            make_identity, make_universal, make_pm1, make_shift,
                            make_first, make_param_example, make_block, make_Rk,
                            make_first_to_last, _violation_from_path)
from origami.frontier import _t2_may_lead
from test_automata import _outcome
from test_mso import formula_cases


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


@pytest.mark.parametrize("backend", ["formula", "automaton"])
def test_check_witness_rejects_malformed_witnesses_on_both_backends(backend):
    r = make_param_example()
    if backend == "automaton":
        r = Resynchronizer(("I",), gamma_automaton=r.gamma_nfa())
    s, sp = graph("ab", "c", (1,)), graph("ab", "c", (2,))
    # one vector of |u| bits, 0 or 1, per parameter, as pair_in_resync gives
    assert pair_in_resync(r, s, sp).params == ((1, 0),)
    assert check_witness(r, s, sp, ResyncWitness(((1, 0),)))
    assert not check_witness(r, s, sp, ResyncWitness(((0, 1),)))
    assert not check_witness(r, s, sp, ResyncWitness(((1, 1),)))
    for params in [(), ((1,),), ((1, 0, 1),), ((1, 0), (0, 0)), ((2, 0),)]:
        with pytest.raises(ResyncError):
            check_witness(r, s, sp, ResyncWitness(params))
    # an input letter outside the base alphabet
    with pytest.raises(ResyncError):
        check_witness(r, graph("ac", "c", (1,)), graph("ac", "c", (2,)),
                      ResyncWitness(((1, 0),)))


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
    """A gamma over no, one or two parameters and (x, y), drawn like
    test_mso's formula_cases; an input over {a, b} of length <= 4; two
    origin tuples for <= 3 output positions."""
    params = draw(st.sampled_from([(), ("I",), ("I", "J")]))

    def gen(depth, scope):
        fo = ["x", "y"] + [v for v in scope if not is_second_order(v)]
        so = list(params) + [v for v in scope if is_second_order(v)]
        kinds = ["top", "letter", "leq", "lt", "succ", "first", "last"]
        if so:
            kinds += ["in", "in"]
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
# parameterless, with quantifiers: the a-block moves of make_block
@example(((), make_block().gamma_formula, "aab", (1, 3), (2, 3)))
@example(((), make_block().gamma_formula, "aab", (1, 3), (1, 2)))
# binds a parameter and x: renamed for the compile, read as written by the evaluator
@example((("I",), parse_formula("x in I & exists2 I. exists x. x in I & a(x)"), "ba",
          (1,), (1,)))
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


# gamma binds its own track x; the evaluator reads the bound x as a new
# position, and the compile renames it apart from the track
SHADOWING_GAMMA = "x = y & exists x. a(x)"


@pytest.mark.parametrize("simplified", [False, True])
def test_gamma_binding_its_own_track_gets_the_evaluators_answer(simplified):
    gamma = parse_formula(SHADOWING_GAMMA)
    r = Resynchronizer((), gamma, base="ab")
    if simplified:
        r = simplify_extended(ExtendedResynchronizer(gamma=gamma, input_base="ab",
                                                     output_base="c"))
    assert r.gamma_formula == gamma
    for n in range(1, 4):
        for u in itertools.product("ab", repeat=n):
            for x, y in itertools.product(range(1, n + 1), repeat=2):
                want = evaluate(gamma, u, {"x": x, "y": y})
                got = pair_in_resync(r, graph(u, "c", (x,)), graph(u, "c", (y,)))
                assert (got is not None) == want, (u, x, y)


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


# bounded_by on every builder the mso-resync benchmark bounds: (the result
# at k = 2|Q| + 1 on words up to length 6, or 5 when m > 1; the results at
# k = 0..3 on words up to length k + 2), a violation as (word, params,
# target, sources), recorded from an earlier implementation of the search.
BOUNDED_BY_PINS = {
    'identity': (None, [('a', (), 1, (1,)), None, None, None]),
    'universal': (None, [('a', (), 1, (1,)), ('aa', (), 2, (1, 2)), ('aaa', (), 3, (1, 2, 3)),
                         ('aaaa', (), 4, (1, 2, 3, 4))]),
    'pm1': (None, [('aa', (), 2, (1,)), ('aaa', (), 2, (1, 3)), None, None]),
    'shift(3)': (None, [('a', (), 1, (1,)), ('aa', (), 1, (1, 2)), ('aaa', (), 1, (1, 2, 3)),
                        ('aaaa', (), 1, (1, 2, 3, 4))]),
    'R_2': (None, [('a', ((0,), (0,), (0,), (0,)), 1, (1,)),
                   ('aa', ((0, 0), (0, 0), (0, 0), (0, 1)), 1, (1, 2)),
                   ('aaa', ((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0)), 1, (1, 2, 3)),
                   ('aaaa', ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), 2,
                    (1, 2, 3, 4))]),
    'param-example': (None, [('a', ((0,),), 1, (1,)), ('aa', ((0, 1),), 1, (1, 2)), None, None]),
    'first-to-last': (None, [('a', (), 1, (1,)), None, None, None]),
    'block': (None, [('a', (), 1, (1,)), None, None, None]),
    'first': (None, [('a', (), 1, (1,)), None, None, None]),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_BY_PINS))
def test_bounded_by_pinned_results(name):
    ab = ("a", "b")
    r = {"identity": make_identity, "universal": make_universal, "pm1": make_pm1,
         "shift(3)": lambda base: make_shift(3, base), "R_2": lambda base: make_Rk(2, base=base),
         "param-example": make_param_example,
         "first-to-last": lambda base: simplify_extended(make_first_to_last()),
         "block": make_block, "first": make_first}[name](ab)
    d, _ = r.gamma_dfa()

    def pinned(v):
        return None if v is None else BoundViolation(tuple(v[0]), *v[1:])

    big, small = BOUNDED_BY_PINS[name]
    assert bounded_by(r, 2 * len(d.states) + 1, 6 if r.m <= 1 else 5) == pinned(big)
    assert [bounded_by(r, k, k + 2) for k in range(4)] == [pinned(v) for v in small]


def bounded_by_reference(resync, k, max_len):
    """bounded_by as it was before letter classes and the length cut: every
    letter from every product state, each state expanded up to max_len."""
    dfa = resync.gamma_dfa()[0]
    xi = resync.m
    num = {s: i for i, s in enumerate(sorted(dfa.states, key=repr))}
    letters = sorted({(a, bits[:xi] + bits[xi + 1:]) for (_p, (a, bits), _q) in dfa.transitions})
    at = {ltr: i for i, ltr in enumerate(letters)}
    step0 = [{} for _ in letters]
    step1 = [{} for _ in letters]
    for (p, (a, bits), q) in dfa.transitions:
        (step1 if bits[xi] else step0)[at[(a, bits[:xi] + bits[xi + 1:])]][num[p]] = num[q]
    final = {num[s] for s in dfa.final}
    start = (num[next(iter(dfa.initial))], ())
    seen = {start}
    frontier = [(start, None)]
    for _depth in range(max_len):
        nxt = []
        for ((d0, placed), link) in frontier:
            for i, ltr in enumerate(letters):
                z0 = step0[i]
                nplaced = tuple(sorted([z0[s] for s in placed]))
                cands = [(z0[d0], nplaced)]
                if len(placed) <= k:
                    cands.append((z0[d0], tuple(sorted(nplaced + (step1[i][d0],)))))
                for state in cands:
                    if state in seen:
                        continue
                    seen.add(state)
                    if len(state[1]) == k + 1 and all(s in final for s in state[1]):
                        return _violation_from_path(resync, (ltr, link))
                    nxt.append((state, (ltr, link)))
        frontier = nxt
    return None


def place_once_reference(resync):
    """The pump search of is_bounded as it was before letter classes were
    shared: letters read from the transitions, nodes sorted by repr."""
    dfa, _delta = resync.gamma_dfa()
    xi = resync.m
    letters0, jump = {}, {}
    for (p, (a, bits), q) in dfa.transitions:
        (jump if bits[xi] else letters0).setdefault((a, bits[:xi] + bits[xi + 1:]), {})[p] = q
    fwd, bwd = {}, {}
    for la in letters0.values():
        for p, q in la.items():
            fwd.setdefault(p, set()).add(q)
            bwd.setdefault(q, set()).add(p)
    acc = _closure(set(dfa.initial), fwd)
    coacc = _closure(dfa.final, bwd)
    U = "unplaced"
    queue = deque((a, b, U) for a in sorted(acc, key=repr) for b in sorted(coacc, key=repr))
    seen = set(queue)
    edges, order = {}, []
    while queue:
        node = queue.popleft()
        order.append(node)
        a, b, t = node
        outs = set()
        for ltr, la in letters0.items():
            if t is U:
                outs.add((la[a], la[b], U))
                outs.add((la[a], la[b], jump[ltr][a]))
            else:
                outs.add((la[a], la[b], la[t]))
        if a in acc and b in coacc and t == b:
            outs.add((a, b, U))
        edges[node] = outs = sorted(outs, key=repr)
        for nxt in outs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    comp = _scc(order, edges)
    for (a, b, t) in order:
        if t == b and a in acc and b in coacc and comp[(a, b, U)] == comp[(a, b, t)]:
            return (a, b)
    return None


def generated_resync(case):
    """A resynchronizer whose gamma is formula_cases' formula; the
    signature's second-order variable, if any, is its one parameter."""
    formula, sig = case
    return Resynchronizer(tuple(v for v in sig if is_second_order(v)), formula, base="ab")


# formula_cases' formulas with x and y free in the signature: gammas with
# zero or one parameter
generated_gammas = formula_cases(bound_sets=[(), ("X",)])


def most_sources(resync, max_len):
    """most[n]: the most sources x that gamma accepts, by the naive
    evaluator, for one word of length n, valuation and target y."""
    most = [0]
    for n in range(1, max_len + 1):
        top = 0
        for u in itertools.product("ab", repeat=n):
            for params in itertools.product(itertools.product((0, 1), repeat=n),
                                            repeat=resync.m):
                for y in range(1, n + 1):
                    top = max(top, sum(resync.gamma_holds(u, params, x, y)
                                       for x in range(1, n + 1)))
        most.append(top)
    return most


@settings(max_examples=100)
@given(generated_gammas)
@example((Top(), ("x", "y")))
@example((Or(Succ("x", "y", 1), Succ("y", "x", 1)), ("y", "X", "x")))
@example((InSet("x", "X"), ("X", "x", "y")))
def test_bounded_by_matches_source_counts(case):
    r = generated_resync(case)
    most = most_sources(r, 4)
    for k in range(3):
        least = next((n for n in range(5) if most[n] > k), None)
        for max_len in range(5):
            got = bounded_by(r, k, max_len)
            assert got == bounded_by_reference(r, k, max_len)
            if least is None or least > max_len:
                assert got is None
                continue
            assert got is not None and len(got.word) == least
            assert len(got.sources) > k
            assert got.sources == tuple(x for x in range(1, least + 1)
                                        if r.gamma_holds(got.word, got.params, x, got.target))


@settings(max_examples=100)
@given(generated_gammas)
@example((Top(), ("x", "y")))
@example((InSet("x", "X"), ("X", "x", "y")))
# pumps at states 11 and 12, and 29 and 30: numbers whose reprs sort apart
@example((f_and(Leq("y", "x"), Exists("z", Succ("y", "z", 9))), ("x", "y")))
@example((Or(Exists("z", Succ("y", "z", 10)), Succ("x", "y", 10)), ("x", "y")))
def test_is_bounded_matches_source_guessing_ambiguity_on_generated_gammas(case):
    r = generated_resync(case)
    res = is_bounded(r)
    assert res.bounded == (ambiguity_report(source_guessing_nfa(r)).kind == FINITE)
    hit = place_once_reference(r)
    assert res.bounded == (hit is None)
    assert (None if res.report is None else res.report.states) == hit


UNIVERSAL_DETAIL = "pump cycle at gamma states (0, 2): one loop admits placements that keep accepting"


def load_univ_rsync():
    with open(os.path.join(os.path.dirname(__file__), "..", "data", "univ.rsync")) as fh:
        return parse_resynchronizer(fh.read())


@pytest.mark.parametrize("load", [make_universal, load_univ_rsync])
def test_universal_pump_pinned(load):
    res = is_bounded(load())
    assert (res.report.states, res.detail) == ((0, 2), UNIVERSAL_DETAIL)


ORDER_BUILDERS = BOUNDED_BUILDERS + [make_universal, lambda: make_Rk(1)]


def run_boundedness(r, call):
    return is_bounded(r) if call is None else bounded_by(r, *call)


@functools.lru_cache(maxsize=None)
def on_fresh_copy(builder, call):
    return run_boundedness(ORDER_BUILDERS[builder](), call)


@given(st.integers(0, len(ORDER_BUILDERS) - 1),
       st.lists(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 5)),
                min_size=1, max_size=8))
def test_boundedness_calls_in_any_order_match_fresh_copies(builder, calls):
    # one resynchronizer keeps its letter classes across calls; each answer
    # must be the one a resynchronizer never asked before gives
    r = ORDER_BUILDERS[builder]()
    assert [run_boundedness(r, c) for c in calls] == [on_fresh_copy(builder, c) for c in calls]



# -- the step table ---------------------------------------------------------------

@st.composite
def gammas_with_params(draw):
    """generated_gammas with zero to two parameters: the signature's
    second-order variable, if any, and maybe a parameter Z that gamma does
    not read, in either order."""
    formula, sig = draw(generated_gammas)
    params = [v for v in sig if is_second_order(v)]
    if draw(st.booleans()):
        params.insert(draw(st.integers(0, len(params))), "Z")
    return Resynchronizer(tuple(params), formula, base="ab")


@settings(max_examples=100)
@given(gammas_with_params())
@example(Resynchronizer(("X", "Z"), InSet("x", "X"), base="ab"))
@example(Resynchronizer(("Z", "X"), f_and(InSet("y", "X"), Succ("x", "y", 1)), base="ab"))
def test_gamma_holds_dfa_matches_evaluator(r):
    # every word, valuation and (x, y) on short words: the step table's
    # entry 4 * row + 2 * x + y against the naive evaluator
    for n in range(1, 4 if r.m < 2 else 3):
        for u in itertools.product("ab", repeat=n):
            for params in itertools.product(itertools.product((0, 1), repeat=n), repeat=r.m):
                for xh, yh in itertools.product(range(1, n + 1), repeat=2):
                    assert r.gamma_holds_dfa(u, params, xh, yh) == r.gamma_holds(u, params, xh, yh)


def minimized_diagrams(r):
    """r's gamma as the minimized decision diagrams that ``gamma_dfa``
    fills its step table from."""
    if r.gamma_formula is not None:
        g = compile_guarded(r._compiled_formula(), r.signature, r.base)
    else:
        g = GuardedNfa.from_nfa(r.gamma_nfa())
    return g.minimize()


@st.composite
def gammas_and_words(draw):
    """A gammas_with_params gamma and extended words over its letters,
    bits drawn as ints, bools or lists, some words with letters outside
    the alphabet: another base letter, a bit 2, too few or too many bits."""
    r = draw(gammas_with_params())
    n = r.m + 2
    bits = st.tuples(*[st.sampled_from((0, 1, False, True))] * n)
    good = st.one_of(st.tuples(st.sampled_from("ab"), bits),
                     st.tuples(st.sampled_from("ab"), bits.map(list)))
    bad = st.one_of(st.tuples(st.just("c"), bits),
                    st.tuples(st.sampled_from("ab"), st.lists(st.sampled_from((0, 1, 2)),
                                                              min_size=n - 1, max_size=n + 1)))
    word = st.lists(good, max_size=6) | st.lists(st.one_of(good, good, good, bad), max_size=6)
    return r, draw(st.lists(word, min_size=1, max_size=8))


@settings(max_examples=100)
@given(gammas_and_words())
@example((make_Rk(1), [[("a", (0, 0, 1, 1)), ("b", [True, False, 0, 1])],
                       [("a", (0, 0, 1))], [("c", (0, 0, 0, 0))], [("a", (0, 0, 2, 1))]]))
def test_step_table_accepts_matches_the_subset_construction(case):
    # the step table's accepts against the subset construction of the
    # DFA's transitions written out from the same diagrams; a letter outside
    # the alphabet raises AlphabetMismatchError on both
    r, words = case
    dfa = r.gamma_dfa()[0]
    ref = minimized_diagrams(r).to_nfa()
    explicit = StructuredNfa(ref.alphabet, ref.states, ref.initial, ref.final, ref.transitions)
    for w in words:
        assert _outcome(dfa.accepts, w) == _outcome(explicit.accepts, w), w
    assert "transitions" not in vars(dfa)
    raised = [w for w in words if _outcome(dfa.accepts, w) is AlphabetMismatchError]
    assert all(any(not ref.alphabet.contains_letter(ltr) for ltr in w) for w in raised)


def t2_may_lead_reference(dfa, delta, letters):
    """_t2_may_lead as it was when it read gamma through a dict
    {(state, letter): state} of the DFA's transitions."""
    zero = (0, 0)
    moves = {0: ((zero, 0), ((1, 0), 1)), 1: ((zero, 1), ((0, 1), 2)), 2: ((zero, 2),)}
    start = (next(iter(dfa.initial)), 0)
    seen, stack = {start}, [start]
    while stack:
        s, phase = stack.pop()
        if phase == 2 and s in dfa.final:
            return True
        for (bits, nphase) in moves[phase]:
            for a in letters:
                item = (delta[(s, (a, bits))], nphase)
                if item not in seen:
                    seen.add(item)
                    stack.append(item)
    return False


def assert_t2_may_lead_matches_reference(r):
    dfa, steps = r.gamma_dfa()
    delta = {(p, a): q for (p, a, q) in dfa.transitions}
    for letters in (("a",), ("b",), ("a", "b")):
        assert _t2_may_lead(dfa, steps, letters) == t2_may_lead_reference(dfa, delta, letters)


# every parameterless builder: the containment frontier asks _t2_may_lead
# only about gammas without parameters
T2_LEAD_BUILDERS = [
    make_identity, make_universal, make_pm1, make_first, make_block, lambda: make_Rk(0),
    lambda: simplify_extended(make_first_to_last()),
    lambda: compose(make_shift(1), make_pm1()), lambda: compose(make_first(), make_block()),
] + [functools.partial(make_shift, k) for k in range(4)]


@pytest.mark.parametrize("builder", range(len(T2_LEAD_BUILDERS)))
def test_t2_may_lead_matches_reference_on_builders(builder):
    assert_t2_may_lead_matches_reference(T2_LEAD_BUILDERS[builder]())


@settings(max_examples=100)
# X bound, x and y free: parameterless gammas
@given(formula_cases(bound_sets=[("X",)]))
@example((Lt("x", "y"), ("x", "y")))
@example((Leq("y", "x"), ("y", "x")))
def test_t2_may_lead_matches_reference_on_generated_gammas(case):
    assert_t2_may_lead_matches_reference(generated_resync(case))


def assert_dead_state_cannot_accept(r):
    # _dead is the one state outside the co-accessible closure, if any
    dfa, steps = r.gamma_dfa()
    back = {}
    for table in steps.values():
        for p, succ in enumerate(table):
            for q in succ:
                back.setdefault(q, set()).add(p)
    outside = dfa.states - _closure(dfa.final, back)
    assert outside == (set() if r._dead is None else {r._dead})
    # membership's search starts every check in state 0
    assert dfa.initial == {0}


def all_words_gamma():
    """A one-state gamma automaton accepting every word, marks unchecked,
    so that it has no dead state."""
    alphabet = StructuredAlphabet(frozenset("ab"), ("x", "y"))
    return Resynchronizer((), gamma_automaton=StructuredNfa(
        alphabet, {0}, {0}, {0}, tuple((0, ltr, 0) for ltr in alphabet.letters())))


DEAD_BUILDERS = T2_LEAD_BUILDERS + [
    make_param_example, lambda: make_Rk(1), lambda: make_Rk(2),
    lambda: compose(make_param_example(), make_pm1()),
    lambda: Resynchronizer((), gamma_automaton=make_pm1().gamma_nfa()),
    lambda: Resynchronizer(("I",), gamma_automaton=make_param_example().gamma_nfa()),
    lambda: Resynchronizer((), parse_formula("false"), base="ab"),
    all_words_gamma,
]


@pytest.mark.parametrize("builder", range(len(DEAD_BUILDERS)))
def test_dead_state_on_builders(builder):
    assert_dead_state_cannot_accept(DEAD_BUILDERS[builder]())


@settings(max_examples=100)
@given(generated_gammas)
@example((Top(), ("x", "y")))
@example((InSet("x", "X"), ("X", "x", "y")))
def test_dead_state_on_generated_gammas(case):
    assert_dead_state_cannot_accept(generated_resync(case))


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


def rename_free_reference(g, m):
    """The renaming written out node kind by node kind, the reference for
    the field walk."""
    def sub(name):
        return m.get(name, name)
    if isinstance(g, Top):
        return g
    if isinstance(g, Letter):
        return Letter(g.letter, sub(g.var))
    if isinstance(g, (Leq, Lt)):
        return type(g)(sub(g.x), sub(g.y))
    if isinstance(g, Succ):
        return Succ(sub(g.x), sub(g.y), g.k)
    if isinstance(g, InSet):
        return InSet(sub(g.x), sub(g.X))
    if isinstance(g, (First, Last)):
        return type(g)(sub(g.var))
    if isinstance(g, Or):
        return Or(rename_free_reference(g.left, m), rename_free_reference(g.right, m))
    if isinstance(g, Not):
        return Not(rename_free_reference(g.body, m))
    inner = {k: v for k, v in m.items() if k != g.var}
    return Exists(g.var, rename_free_reference(g.body, inner))


def all_var_names_reference(g):
    names = {getattr(g, f) for f in ("var", "x", "y", "X") if hasattr(g, f)}
    for f in ("left", "right", "body"):
        if hasattr(g, f):
            names |= all_var_names_reference(getattr(g, f))
    return names


def compose_reference(r1, r2):
    """compose's gamma, built with the reference renaming."""
    ren2, taken = {}, set(r1.params)
    for p in r2.params:
        q = p
        while q in taken:
            q += "_b"
        ren2[p] = q
        taken.add(q)
    g2 = rename_free_reference(r2.gamma_formula, ren2)
    used = (all_var_names_reference(r1.gamma_formula) | all_var_names_reference(g2)
            | taken | {"x", "y"})
    mid = "mid"
    while mid in used:
        mid += "_"
    return Exists(mid, f_and(rename_free_reference(r1.gamma_formula, {"x": mid}),
                             rename_free_reference(g2, {"y": mid})))


# every node kind; z is bound inside, so the inner z keeps its name
EVERY_NODE = Or(f_and(Top(), Letter("a", "x"), Leq("x", "y"), Lt("y", "z"),
                      Succ("z", "x", 2), InSet("x", "I")),
                Not(Exists("z", f_and(First("z"), Last("y"), InSet("z", "I"),
                                      Exists("I", InSet("z", "I"))))))


def test_rename_free_over_every_node_kind():
    got = rename_free(EVERY_NODE, {"x": "w", "y": "v", "z": "u", "I": "J"})
    assert got == rename_free_reference(EVERY_NODE, {"x": "w", "y": "v", "z": "u", "I": "J"})
    assert got == Or(f_and(Top(), Letter("a", "w"), Leq("w", "v"), Lt("v", "u"),
                           Succ("u", "w", 2), InSet("w", "J")),
                     Not(Exists("z", f_and(First("z"), Last("v"), InSet("z", "J"),
                                           Exists("I", InSet("z", "I"))))))


@given(formula_cases())
def test_rename_free_matches_reference(case):
    formula, sig = case
    mapping = {v: v + "_r" for v in sig}
    assert rename_free(formula, mapping) == rename_free_reference(formula, mapping)


COMPOSE_BUILDERS = [make_identity, make_universal, make_pm1, lambda: make_shift(2),
                    make_first, make_param_example, make_block, lambda: make_Rk(1),
                    lambda: compose(make_param_example(), make_pm1())]


@pytest.mark.parametrize("first", range(len(COMPOSE_BUILDERS)))
def test_compose_formula_matches_reference(first):
    r1 = COMPOSE_BUILDERS[first]()
    for build in COMPOSE_BUILDERS:
        r2 = build()
        assert compose(r1, r2).gamma_formula == compose_reference(r1, r2)


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


def extended_pair_in_resync_bruteforce(ext, sigma, sigma_p):
    """Oracle: output valuations in ``itertools.product`` order, each that
    beta accepts, then input valuations with rows position by position in
    lexicographic order; alpha, every gamma and every delta by the naive
    evaluator.  The first hit is ``extended_pair_in_resync``'s witness."""
    u, v = sigma.input, sigma.output

    def sets(names, vecs):
        return {nm: frozenset(i + 1 for i, b in enumerate(vec) if b)
                for nm, vec in zip(names, vecs)}

    for obits in itertools.product(itertools.product((0, 1), repeat=len(v)), repeat=ext.n_out):
        if not evaluate(ext.beta, v, sets(ext.out_params, obits)):
            continue
        tys = [(c,) + tuple(vec[t] for vec in obits) for t, c in enumerate(v)]
        for rows in itertools.product(itertools.product((0, 1), repeat=ext.m), repeat=len(u)):
            ibits = tuple(tuple(r[i] for r in rows) for i in range(ext.m))
            env = sets(ext.in_params, ibits)
            if evaluate(ext.alpha, u, env) and all(
                    evaluate(ext.gamma_by_type[ty], u, {**env, "x": x, "y": y})
                    for ty, x, y in zip(tys, sigma.orig, sigma_p.orig)) and all(
                    evaluate(ext.delta_by_type_pair[(t1, t2)], u, {**env, "x": y1, "y": y2})
                    for t1, t2, y1, y2 in zip(tys, tys[1:], sigma_p.orig, sigma_p.orig[1:])):
                return ResyncWitness(ibits, obits)
    return None


def draw_formula(draw, depth, fo, so, letters, binders):
    """A formula of nesting depth <= depth with free variables among the
    first-order fo and second-order so, over the given letters; exists
    binds a name of binders that no enclosing exists binds, which may be
    one of fo or so."""
    def gen(depth, scope):
        names = [v for v in fo + so if v not in scope] + list(scope)
        fos = [v for v in names if not is_second_order(v)]
        sos = [v for v in names if is_second_order(v)]
        kinds = ["top"]
        if fos:
            kinds += ["letter", "leq", "lt", "succ", "first", "last"]
            if sos:
                kinds += ["in", "in"]
        if depth:
            kinds += ["or", "or", "not", "not"]
            if set(binders) - set(scope):
                kinds.append("exists")
        kind = draw(st.sampled_from(kinds))
        if kind == "top":
            return Top()
        if kind == "letter":
            return Letter(draw(st.sampled_from(letters)), draw(st.sampled_from(fos)))
        if kind in ("leq", "lt", "succ"):
            x, y = draw(st.sampled_from(fos)), draw(st.sampled_from(fos))
            if kind == "succ":
                return Succ(x, y, draw(st.integers(0, 2)))
            return Leq(x, y) if kind == "leq" else Lt(x, y)
        if kind in ("first", "last"):
            v = draw(st.sampled_from(fos))
            return First(v) if kind == "first" else Last(v)
        if kind == "in":
            return InSet(draw(st.sampled_from(fos)), draw(st.sampled_from(sos)))
        if kind == "or":
            return Or(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "not":
            return Not(gen(depth - 1, scope))
        v = draw(st.sampled_from(sorted(set(binders) - set(scope))))
        return Exists(v, gen(depth - 1, scope + (v,)))

    return gen(depth, ())


@st.composite
def extended_cases(draw):
    """An extended resynchronizer over inputs {a, b} and outputs {c, d}
    with 0-2 input and 0-1 output parameters: alpha, beta, and one to three
    gammas and deltas, shared out over the output types and type pairs;
    quantifiers may rebind x or a parameter.  Then an input of length <= 4
    (<= 3 with two parameters) and two origin tuples for <= 3 outputs."""
    ins = draw(st.sampled_from([(), ("I",), ("I", "J")]))
    outs = draw(st.sampled_from([(), ("P",)]))
    binders = ("z", "Z", "x") + ins[:1]
    alpha = draw_formula(draw, 3, (), ins, "ab", binders)
    beta = draw_formula(draw, 3, (), outs, "cd", ("z", "Z"))
    gammas = [draw_formula(draw, 3, ("x", "y"), ins, "ab", binders)
              for _ in range(draw(st.integers(1, 3)))]
    deltas = [draw_formula(draw, 3, ("x", "y"), ins, "ab", binders)
              for _ in range(draw(st.integers(1, 3)))]
    types = [(c,) + bits for c in "cd" for bits in itertools.product((0, 1), repeat=len(outs))]
    ext = ExtendedResynchronizer(
        ins, outs, alpha, beta,
        gamma_by_type={t: draw(st.sampled_from(gammas)) for t in types},
        delta_by_type_pair={(t1, t2): draw(st.sampled_from(deltas))
                            for t1 in types for t2 in types},
        input_base="ab", output_base="cd")
    n = draw(st.integers(1, 3 if len(ins) == 2 else 4))
    u = draw(st.text("ab", min_size=n, max_size=n))
    v = "".join(draw(st.sampled_from("cd")) for _ in range(draw(st.integers(0, 3))))
    orig = [tuple(draw(st.integers(1, n)) for _ in v) for _ in range(2)]
    return ext, graph(u, v, orig[0]), graph(u, v, orig[1])


@settings(max_examples=150)
@given(extended_cases())
@example((ExtendedResynchronizer(("I", "J"), (), gamma=LAST_OR_FIRST, input_base="a",
                                 output_base="c"),) + (graph("aa", "c", (1,)),) * 2)
# alpha and delta bind names that are tracks of their automata
@example((ExtendedResynchronizer(("I",), alpha=parse_formula("exists x. x in I & b(x)"),
                                 delta=parse_formula("x < y & exists y. y in I & x < y"),
                                 input_base="ab", output_base="c"),
          graph("aba", "cc", (1, 1)), graph("aba", "cc", (1, 3))))
def test_extended_membership_matches_position_major_oracle(case):
    ext, s, sp = case
    assert extended_pair_in_resync(ext, s, sp) == extended_pair_in_resync_bruteforce(ext, s, sp)


def test_extended_witness_is_least_position_major():
    ext = ExtendedResynchronizer(("I", "J"), (), gamma=LAST_OR_FIRST, input_base="a",
                                 output_base="c")
    g = graph("aa", "c", (1,))
    plain = pair_in_resync(Resynchronizer(("I", "J"), LAST_OR_FIRST, base="a"), g, g)
    assert extended_pair_in_resync(ext, g, g).params == plain.params == ((0, 1), (0, 0))


def test_extended_formula_shared_by_types_compiles_once():
    gamma, delta = parse_formula("x = y"), parse_formula("x <= y")
    ext = ExtendedResynchronizer(gamma=gamma, delta=delta, input_base="a", output_base="cd")
    resyncs = {ext._gamma_resync(t) for t in ext.types()}
    assert len(resyncs) == 1
    s = graph("aa", "cdc", (1, 2, 2))
    assert extended_pair_in_resync(ext, s, s) is not None
    # alpha, the shared gamma and the shared delta: one entry each
    assert sorted(id(f) for (f, _r) in ext._resyncs.values()) == \
        sorted(map(id, (ext.alpha, gamma, delta)))


BAD_EXTENDED = {
    "alpha reads an unknown set": dict(alpha=parse_formula("exists z. z in K")),
    "alpha reads x": dict(alpha=parse_formula("a(x)")),
    "beta reads an input parameter": dict(in_params=("I",),
                                          beta=parse_formula("exists z. z in I")),
    "beta reads an unknown set": dict(beta=parse_formula("exists z. z in Q")),
    "gamma reads an unknown position": dict(gamma=parse_formula("w <= x")),
    "typed gamma reads an output parameter": dict(
        out_params=("P",), gamma_by_type={(c, b): parse_formula("exists z. z in P" if b else "true")
                                          for c in "cd" for b in (0, 1)}),
    "delta reads an unknown position": dict(delta=parse_formula("x <= w")),
    "first-order input parameter": dict(in_params=("i",)),
    "first-order output parameter": dict(out_params=("p",)),
}


@pytest.mark.parametrize("name", sorted(BAD_EXTENDED))
def test_extended_free_variables_checked_when_built(name):
    with pytest.raises(ResyncError):
        ExtendedResynchronizer(**BAD_EXTENDED[name])


def test_partial_delta_map_rejected():
    c, d = ("c",), ("d",)
    full = {(t1, t2): Top() for t1 in (c, d) for t2 in (c, d)}
    ExtendedResynchronizer(delta_by_type_pair=full, input_base="a", output_base="cd")
    del full[(c, d)]
    with pytest.raises(ResyncError, match=r"misses type pairs \[\(\('c',\), \('d',\)\)\]"):
        ExtendedResynchronizer(delta_by_type_pair=full, input_base="a", output_base="cd")


def test_maps_naming_unknown_types_rejected():
    c, d, z = ("c",), ("d",), ("z",)
    gammas = {c: Top(), d: Top()}
    deltas = {(t1, t2): Top() for t1 in (c, d) for t2 in (c, d)}
    ExtendedResynchronizer(gamma_by_type=gammas, delta_by_type_pair=deltas,
                           input_base="a", output_base="cd")
    with pytest.raises(ResyncError, match=r"gamma_by_type names unknown types \[\('z',\)\]"):
        ExtendedResynchronizer(gamma_by_type={**gammas, z: Top()}, input_base="a",
                               output_base="cd")
    with pytest.raises(ResyncError, match=r"unknown type pairs \[\(\('z',\), \('c',\)\)\]"):
        ExtendedResynchronizer(delta_by_type_pair={**deltas, (z, c): Top()}, input_base="a",
                               output_base="cd")


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
