import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from origami.mso import (parse_formula, mso_compile, compile_dfa, evaluate_extended,
                         is_second_order, MsoSyntaxError, UnboundVariableError,
                         Top, Letter, Leq, Lt, InSet, Succ, First, Last, Or, Not, Exists,
                         bottom, f_and, forall, _shape)
from origami.resync import rename_free

from outcomes import outcome


def ext_letters(base, k):
    return [(a, bits) for a in sorted(base) for bits in itertools.product((0, 1), repeat=k)]


def sweep_agreement(formula, signature, base, max_len):
    auto = mso_compile(formula, signature, base)
    for n in range(0, max_len + 1):
        for w in itertools.product(ext_letters(base, len(signature)), repeat=n):
            assert auto.accepts(w) == evaluate_extended(formula, w, signature), (formula, w)


def test_pm1_disjunct_examples():
    f = parse_formula("(x = y + 1) | (y = x + 1)")
    auto = mso_compile(f, ("x", "y"), {"a"})
    assert auto.accepts([("a", (0, 0)), ("a", (1, 0)), ("a", (0, 1))])
    assert not auto.accepts([("a", (1, 0)), ("a", (0, 0)), ("a", (0, 1))])


def test_top_accepts_everything():
    auto = mso_compile(parse_formula("true"), (), {"a", "b"})
    for n in range(1, 5):
        for w in itertools.product(ext_letters("ab", 0), repeat=n):
            assert auto.accepts(w)


def test_membership_example():
    f = parse_formula("exists x. (x in X & a(x))")
    auto = mso_compile(f, ("X",), {"a", "b"})
    assert auto.accepts([("a", (0,)), ("b", (1,)), ("a", (1,))])
    assert not auto.accepts([("a", (0,)), ("b", (1,)), ("a", (0,))])


def test_first_order_tracks_need_one_bit():
    auto = mso_compile(parse_formula("a(x)"), ("x",), {"a"})
    assert not auto.accepts([("a", (0,))])
    assert not auto.accepts([("a", (1,)), ("a", (1,))])
    assert auto.accepts([("a", (1,)), ("a", (0,))])


def test_first_and_last_witness():
    auto = mso_compile(parse_formula("first(x) & last(x)"), ("x",), {"a"})
    assert auto.find_witness() == (("a", (1,)),)


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariableError):
        mso_compile(parse_formula("a(x)"), (), {"a"})


def test_shadowing_rejected():
    with pytest.raises(MsoSyntaxError):
        mso_compile(parse_formula("exists x. exists x. a(x)"), (), {"a"})


def test_parser_errors():
    for bad in ["a(", "x <=", "exists X. a(x)", "x in y", "(a(x)"]:
        with pytest.raises(MsoSyntaxError):
            parse_formula(bad)


MSO_ROWS = [
    ("repeated signature variable",
     lambda: mso_compile(parse_formula("x = y"), ("x", "x"), "ab"), MsoSyntaxError),
    ("trailing whitespace", lambda: parse_formula("x = y  "), parse_formula("x = y")),
    ("untokenizable character", lambda: parse_formula("x = y $"), MsoSyntaxError),
    ("expected token missing", lambda: parse_formula("first(x y)"), MsoSyntaxError),
    ("trailing tokens", lambda: parse_formula("x = y )"), MsoSyntaxError),
    ("unexpected token", lambda: parse_formula("( )"), MsoSyntaxError),
    ("no integer after +", lambda: parse_formula("x = y + z"), MsoSyntaxError),
    ("no operator after a variable", lambda: parse_formula("x y"), MsoSyntaxError),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in MSO_ROWS],
                         ids=[row[0] for row in MSO_ROWS])
def test_mso_rows(call, expected):
    assert outcome(call) == expected


def test_parser_roundtrip_constructs():
    f = parse_formula("forall z. ((x < z & z < y) -> !(z in R))")
    assert f.free_vars() == {"x", "y", "R"}


# the compiler oracle: formula corpus vs the naive evaluator
CORPUS = [
    (parse_formula("x = y + 1"), ("x", "y")),
    (parse_formula("y = x + 1"), ("x", "y")),
    (parse_formula("x = y + 2"), ("x", "y")),
    (parse_formula("x = y"), ("x", "y")),
    (parse_formula("x <= y"), ("x", "y")),
    (parse_formula("x < y"), ("x", "y")),
    (parse_formula("first(x) & last(y)"), ("x", "y")),
    (parse_formula("first(x)"), ("x", "y")),
    (parse_formula("a(x) | b(y)"), ("x", "y")),
    (parse_formula("exists2 X. (x in X & !(y in X))"), ("x", "y")),
    (parse_formula("forall z. ((x <= z & z <= y) -> a(z))"), ("x", "y")),
    (parse_formula("(x in I & forall w. (w in I -> w = x)) | x = y"), ("I", "x", "y")),
]


@pytest.mark.parametrize("formula,sig", CORPUS, ids=range(len(CORPUS)))
def test_compile_matches_evaluator(formula, sig):
    max_len = 5 if len(sig) <= 2 else 4
    sweep_agreement(formula, sig, "ab", max_len)


def test_compile_matches_evaluator_rtrav():
    # one R_k right-traversal disjunct, four free variables
    f = parse_formula(
        "x in R & x < y & forall z. ((x < z & z < y) -> !(z in R))")
    sweep_agreement(f, ("R", "S", "x", "y"), "ab", 3)


# generated formulas: every node kind, free variables drawn from x, y, X
VARS = ("X", "x", "y")
# every set of variables the formulas may bind
BOUND_SETS = [c for r in range(4) for c in itertools.combinations(VARS, r)]


@st.composite
def formula_cases(draw, count=1, bound_sets=BOUND_SETS):
    """``count`` formulas, then a signature holding their free variables
    (and maybe more, in any order).  The variables bound in the formulas
    are one of ``bound_sets``; they are left out of the signature and
    never bound twice on one path, as the compiler requires; a quantifier
    may bind a variable its body does not use.  Conjunctions come through
    ``f_and`` and universal quantifiers through ``forall``, the shapes the
    parser builds."""
    bound = set(draw(st.sampled_from(bound_sets)))
    sig = tuple(draw(st.permutations([v for v in VARS if v not in bound])))

    def gen(depth, scope):
        names = sig + scope
        fo = [v for v in names if not is_second_order(v)]
        so = [v for v in names if is_second_order(v)]
        kinds = ["top"]
        if fo:
            kinds += ["letter", "leq", "lt", "succ", "first", "last"]
        if fo and so:
            kinds.append("in")
        if depth:
            kinds += ["or", "and", "not"]
            if bound - set(scope):
                kinds += ["exists", "forall"]
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
        if kind == "and":
            return f_and(gen(depth - 1, scope), gen(depth - 1, scope))
        if kind == "not":
            return Not(gen(depth - 1, scope))
        v = draw(st.sampled_from(sorted(bound - set(scope))))
        body = gen(depth - 1, scope + (v,))
        return Exists(v, body) if kind == "exists" else forall(v, body)

    return *(gen(4, ()) for _ in range(count)), sig


@settings(max_examples=150)
@given(formula_cases())
# vacuous quantifiers: exists x needs a position even when x is unused
@example((Exists("x", Top()), ("X",)))
@example((Or(Exists("X", Not(Top())), Exists("x", Top())), ()))
@example((Not(Exists("y", Not(Letter("a", "x")))), ("x",)))
def test_generated_formulas_match_evaluator(case):
    formula, sig = case
    sweep_agreement(formula, sig, "ab", 3)


@settings(max_examples=100)
@given(formula_cases())
def test_compile_dfa_is_the_minimized_compile(case):
    formula, sig = case
    assert compile_dfa(formula, sig, "ab") == mso_compile(formula, sig, "ab").minimize()


def test_shapes_equal_up_to_order_preserving_renaming():
    sig = ("x", "y", "u", "v")
    shapes = {}

    def shape(text):
        return _shape(parse_formula(text), sig, shapes)[0]

    assert shape("x < y") == shape("u < v") == shape("x < v")
    assert shape("x < y") != shape("y < x")
    assert shape("x < y") != shape("x <= y")
    assert shape("x = y + 1") != shape("x = y + 2")
    assert shape("a(x)") != shape("b(x)")
    assert shape("exists z. x < z") == shape("exists w. v < w")
    assert shape("exists z. x < z") != shape("exists z. z < x")
    assert shape("exists2 Z. true") != shape("exists z. true")
    assert shape("x < y | a(x)") == shape("u < v | a(u)")
    assert shape("x < y | a(x)") != shape("x < y | a(y)")


@settings(max_examples=60)
@given(formula_cases(), st.booleans())
# x < y against its copy y' < x': one shape only when the order is kept
@example((Lt("x", "y"), ("x", "y")), False)
@example((Lt("x", "y"), ("x", "y")), True)
def test_renamed_copy_compiles_like_the_evaluator(case, reverse):
    """f or a copy of f with its free variables renamed to new names; the
    copy's variables come after f's in the signature, in f's order (so the
    compile shares f's automaton for the copy) or in reverse order."""
    f, sig = case
    ren = {v: v + "2" for v in sig}
    copy = rename_free(f, ren)
    copy_sig = tuple(ren[v] for v in sig)
    full = sig + (copy_sig[::-1] if reverse else copy_sig)
    formula = Or(f, copy)
    if not reverse:
        left, right = _shape(formula, full, {})[2]
        assert left[0] == right[0]
    sweep_agreement(formula, full, "ab", 2)
    assert compile_dfa(formula, full, "ab") == mso_compile(formula, full, "ab").minimize()


@settings(max_examples=100)
@given(formula_cases(count=2))
def test_conjunction_product_route_equals_de_morgan_route(case):
    a, b, sig = case
    # the same language as f_and(a, b), but its top Or is not Not(_) | Not(_),
    # so the compiler complements it instead of taking the product
    de_morgan = Not(Or(Not(a), Or(Not(b), bottom())))
    assert mso_compile(f_and(a, b), sig, "ab") == mso_compile(de_morgan, sig, "ab")
    assert compile_dfa(f_and(a, b), sig, "ab") == compile_dfa(de_morgan, sig, "ab")


def outputs_under_hash_seeds(args, seeds):
    """The distinct (exit code, stdout) of ``origami args`` under each
    PYTHONHASHSEED, run from the repository root."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    outs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-m", "origami.cli", *args], cwd=root, env=env,
                             capture_output=True)
        outs.add((res.returncode, res.stdout))
    return outs


def test_cli_output_independent_of_hash_seed():
    args = ["mso-compile", "x < y & forall z. ((x < z & z < y) -> a(z))",
            "--signature", "x y", "--alphabet", "a b"]
    outs = outputs_under_hash_seeds(args, ("1", "3", "5"))
    assert len(outs) == 1 and next(iter(outs))[0] == 0


def test_resync_bounded_output_independent_of_hash_seed():
    # the pump search once followed set order: seeds 4 and 6 gave (1, 3)
    outs = outputs_under_hash_seeds(["resync-bounded", "data/univ.rsync"], ("0", "4", "6"))
    assert len(outs) == 1
    assert b"pump cycle at gamma states (0, 2)" in next(iter(outs))[1]
