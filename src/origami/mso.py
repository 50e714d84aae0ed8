"""MSO over words: formulas, a naive evaluator, a parser, and compilation
to structured NFAs.

Variable sorts follow the usual case convention: names starting with an
uppercase letter are second-order (sets of positions), everything else is
first-order (single positions).  First-order variables compile as boolean
tracks with an "exactly one 1-bit" automaton conjoined, so one track
construction serves both sorts.

Atom automata use weak semantics (constraints over every marked position)
that coincide with the real semantics on words whose first-order tracks
are singletons; the singleton automata are conjoined when a first-order
variable is projected away and once more at the top level.

A conjunction, ``Not(Or(Not(a), Not(b)))`` as ``f_and`` and the parser's
``&`` write it, compiles as one product of a and b followed by one
minimization, as MONA does (Klarlund, Moller, Schwartzbach, "MONA
implementation secrets", IJFCS 2002), instead of three complements and a
union.  The language is the same, a minimal complete DFA is unique, and
``minimize`` numbers its blocks canonically, so the automaton built is
the same, state for state and transition for transition.

Subformulas that are equal up to an order-preserving renaming of their
free variables compile once per compile, as in MONA's DAG representation
(same paper): one bottom-up pass (``_shape``) numbers every subformula by
its shape, the formula with its free variables replaced by their ranks
in the signature order and its bound variables left anonymous, and the
compile (``_comp``) keeps the automaton of each shape number, handing it
to a later subformula of that shape with the track names changed.  The
diagrams depend on track positions only, so the automaton is the one a
compile of its own would build.  R_k's k ``Right_i`` parts are one shape,
and so are its k ``Left_i`` parts; ``x < y`` and ``y < x`` are not.  The
same pass rejects a quantifier that rebinds a variable in scope, once,
before anything compiles.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .automata import Diagrams, GuardedNfa, StructuredAlphabet, StructuredNfa


class UnboundVariableError(ValueError):
    pass


class MsoSyntaxError(ValueError):
    pass


def is_second_order(name: str) -> bool:
    return name[0].isupper()


# -- abstract syntax -------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def free_vars(self) -> frozenset:
        raise NotImplementedError


@dataclass(frozen=True)
class Top(Formula):
    def free_vars(self):
        return frozenset()


@dataclass(frozen=True)
class Letter(Formula):
    letter: str
    var: str

    def free_vars(self):
        return frozenset([self.var])


@dataclass(frozen=True)
class Leq(Formula):
    x: str
    y: str

    def free_vars(self):
        return frozenset([self.x, self.y])


@dataclass(frozen=True)
class Lt(Formula):
    x: str
    y: str

    def free_vars(self):
        return frozenset([self.x, self.y])


@dataclass(frozen=True)
class InSet(Formula):
    x: str
    X: str

    def free_vars(self):
        return frozenset([self.x, self.X])


@dataclass(frozen=True)
class Succ(Formula):
    """x = y + k with k >= 0; k = 0 is plain position equality."""
    x: str
    y: str
    k: int

    def free_vars(self):
        return frozenset([self.x, self.y])


@dataclass(frozen=True)
class First(Formula):
    var: str

    def free_vars(self):
        return frozenset([self.var])


@dataclass(frozen=True)
class Last(Formula):
    var: str

    def free_vars(self):
        return frozenset([self.var])


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def free_vars(self):
        return self.body.free_vars()


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def free_vars(self):
        return self.body.free_vars() - {self.var}


# -- derived constructors --------------------------------------------------

def f_and(*fs):
    """a & b & ..., written ``Not(Or(Not(a), Not(b)))`` and nested to the
    left; the compiler takes that shape as a product (see ``_comp``)."""
    fs = list(fs)
    out = Not(Or(Not(fs[0]), Not(fs[1]))) if len(fs) >= 2 else fs[0]
    for f in fs[2:]:
        out = Not(Or(Not(out), Not(f)))
    return out


def f_or(*fs):
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def implies(a, b):
    return Or(Not(a), b)


def forall(var, body):
    return Not(Exists(var, Not(body)))


def eq(x, y):
    return Succ(x, y, 0)


def bottom():
    return Not(Top())


# -- naive semantics (the compiler's independent oracle) --------------------

def evaluate(formula: Formula, word, env) -> bool:
    """Recursive MSO semantics with quantifiers expanded by enumeration.

    ``word`` is a tuple of base letters, ``env`` maps first-order variables
    to 1-based positions and second-order variables to position sets.
    Exponential in the number of nested second-order quantifiers; meant as
    an oracle at desk scale.
    """
    n = len(word)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Letter):
        return word[env[formula.var] - 1] == formula.letter
    if isinstance(formula, Leq):
        return env[formula.x] <= env[formula.y]
    if isinstance(formula, Lt):
        return env[formula.x] < env[formula.y]
    if isinstance(formula, InSet):
        return env[formula.x] in env[formula.X]
    if isinstance(formula, Succ):
        return env[formula.x] == env[formula.y] + formula.k
    if isinstance(formula, First):
        return env[formula.var] == 1
    if isinstance(formula, Last):
        return env[formula.var] == n
    if isinstance(formula, Or):
        return evaluate(formula.left, word, env) or evaluate(formula.right, word, env)
    if isinstance(formula, Not):
        return not evaluate(formula.body, word, env)
    if isinstance(formula, Exists):
        v = formula.var
        if is_second_order(v):
            positions = list(range(1, n + 1))
            for r in range(n + 1):
                for combo in itertools.combinations(positions, r):
                    if evaluate(formula.body, word, {**env, v: frozenset(combo)}):
                        return True
            return False
        return any(evaluate(formula.body, word, {**env, v: i}) for i in range(1, n + 1))
    raise TypeError(f"unknown formula node {formula!r}")


def evaluate_extended(formula: Formula, extended_word, signature) -> bool:
    """Evaluate on a word over base x B^len(signature).

    A word models the formula only if every first-order track carries
    exactly one 1-bit; otherwise it is rejected, mirroring the compiled
    automaton's convention.
    """
    word = tuple(a for (a, _bits) in extended_word)
    env = {}
    for i, v in enumerate(signature):
        marked = frozenset(p + 1 for p, (_a, bits) in enumerate(extended_word) if bits[i])
        if is_second_order(v):
            env[v] = marked
        else:
            if len(marked) != 1:
                return False
            env[v] = next(iter(marked))
    return evaluate(formula, word, env)


# -- compilation to automata ------------------------------------------------

def _singleton(var, alpha, dd) -> GuardedNfa:
    def move(s, _a, bit):
        if s == "dead":
            return "dead"
        if bit[var]:
            return {"zero": "one", "one": "dead"}[s]
        return s

    return GuardedNfa.from_move(dd, alpha, {"zero", "one", "dead"}, "zero", {"one"}, move, (var,))


def _atom_letter(f, alpha, dd):
    def move(s, a, bit):
        if s == "dead" or (bit[f.var] and a != f.letter):
            return "dead"
        return "ok"

    return GuardedNfa.from_move(dd, alpha, {"ok", "dead"}, "ok", {"ok"}, move, (f.var,),
                                reads_letter=True)


def _atom_inset(f, alpha, dd):
    def move(s, _a, bit):
        if s == "dead" or (bit[f.x] and not bit[f.X]):
            return "dead"
        return "ok"

    return GuardedNfa.from_move(dd, alpha, {"ok", "dead"}, "ok", {"ok"}, move, (f.x, f.X))


def _atom_leq(f, alpha, dd, strict=False):
    def move(s, _a, bit):
        bx, by = bit[f.x], bit[f.y]
        if s == "dead":
            return "dead"
        if s == "pre":
            if bx and by:
                return "dead" if strict else "post"
            if bx:
                return "mid"
            if by:
                return "dead"
            return "pre"
        if s == "mid":
            return "post" if by else "mid"
        return "post"

    return GuardedNfa.from_move(dd, alpha, {"pre", "mid", "post", "dead"}, "pre", {"post"},
                                move, (f.x, f.y))


def _atom_succ(f, alpha, dd):
    k = f.k
    if k == 0:
        def move(s, _a, bit):
            if s == "dead" or bit[f.x] != bit[f.y]:
                return "dead"
            return "ok"

        return GuardedNfa.from_move(dd, alpha, {"ok", "dead"}, "ok", {"ok"}, move, (f.x, f.y))

    # ("wait", i) means i positions after y have been read; x expected at step k
    def move2(s, _a, bit):
        bx, by = bit[f.x], bit[f.y]
        if s == "dead":
            return "dead"
        if s == "pre":
            if bx:
                return "dead"
            return ("wait", 1) if by else "pre"
        if isinstance(s, tuple):
            i = s[1]
            if i == k:
                return "done" if bx else "dead"
            return "dead" if bx else ("wait", i + 1)
        return "done"

    states = {"pre", "done", "dead"} | {("wait", i) for i in range(1, k + 1)}
    return GuardedNfa.from_move(dd, alpha, states, "pre", {"done"}, move2, (f.x, f.y))


def _atom_first(f, alpha, dd):
    def move(s, _a, bit):
        if s == "start":
            return "rest"
        if s == "dead" or bit[f.var]:
            return "dead"
        return "rest"

    return GuardedNfa.from_move(dd, alpha, {"start", "rest", "dead"}, "start", {"start", "rest"},
                                move, (f.var,))


def _atom_last(f, alpha, dd):
    def move(s, _a, bit):
        if s == "dead" or s == "marked":
            return "dead"
        return "marked" if bit[f.var] else "clean"

    return GuardedNfa.from_move(dd, alpha, {"clean", "marked", "dead"}, "clean",
                                {"clean", "marked"}, move, (f.var,))


def _all_accepting(alpha, dd):
    return GuardedNfa.from_move(dd, alpha, {"ok"}, "ok", {"ok"}, lambda s, _a, _bit: "ok")


_MINIMIZE_THRESHOLD = 24


def _compact(n: GuardedNfa) -> GuardedNfa:
    if len(n.names) > _MINIMIZE_THRESHOLD:
        return n.minimize().trim()
    return n.trim()


def _atom_vars(f):
    """An atom's variables, in field order, and its other fields."""
    if isinstance(f, (Leq, Lt)):
        return (f.x, f.y), ()
    if isinstance(f, Succ):
        return (f.x, f.y), f.k
    if isinstance(f, InSet):
        return (f.x, f.X), ()
    if isinstance(f, Letter):
        return (f.var,), f.letter
    if isinstance(f, (First, Last)):
        return (f.var,), ()
    if isinstance(f, Top):
        return (), ()
    raise TypeError(f"unknown formula node {f!r}")


def _shape(formula, sig, shapes):
    """``formula``'s shape, bottom-up: (shape number, its free variables in
    ``sig`` order, the children's shapes), ``sig`` listing every variable
    in scope.  Two subformulas get one number when an order-preserving
    renaming of their free variables, and any renaming of the variables
    they bind, turns one into the other; then their automata differ in
    the track names only.  ``shapes`` numbers the keys: a node's kind, its
    children's numbers and where their free variables sit among its own.
    Raises ``MsoSyntaxError`` where an ``Exists`` rebinds a variable in
    scope."""
    if isinstance(formula, Or):
        left = _shape(formula.left, sig, shapes)
        right = _shape(formula.right, sig, shapes)
        fl, fr = left[1], right[1]
        fv = fl if fl == fr else tuple(v for v in sig if v in fl or v in fr)
        key = (Or, left[0], tuple(map(fv.index, fl)), right[0], tuple(map(fv.index, fr)))
        kids = (left, right)
    elif isinstance(formula, Not):
        body = _shape(formula.body, sig, shapes)
        fv, key, kids = body[1], (Not, body[0]), (body,)
    elif isinstance(formula, Exists):
        v = formula.var
        if v in sig:
            raise MsoSyntaxError(f"variable {v!r} shadows an outer binding")
        body = _shape(formula.body, sig + (v,), shapes)
        used = body[1][-1:] == (v,)   # v comes last in sig + (v,)
        fv = body[1][:-1] if used else body[1]
        key, kids = (Exists, is_second_order(v), body[0], used), (body,)
    else:
        names, rest = _atom_vars(formula)
        fv = tuple(v for v in sig if v in names)
        key, kids = (type(formula), rest, tuple(map(fv.index, names))), ()
    return shapes.setdefault(key, len(shapes)), fv, kids


def _comp(formula, shape, dd, memo):
    """Compile ``formula`` over the tracks of its own free variables only,
    in their ``sig`` order, as ``shape`` (its ``_shape``) lists them.

    ``memo`` maps a shape number to the automaton compiled for it in this
    compile, so each shape compiles once; another subformula of that
    shape gets the same automaton with its own track names.

    Every subformula's automaton ignores the tracks of variables that are
    not free in it, so they are left out; ``extend_tracks`` adds them back
    where automata meet: both sides of an ``Or``, and a quantified
    variable's track at ``Exists`` (so a vacuous ``exists z. true`` still
    needs one position for z).

    ``Not(Or(Not(a), Not(b)))``, a conjunction, compiles as the product of
    a and b, minimized and trimmed: the same language as complementing
    the union of the two complements, so the same minimal DFA with the
    same block numbers, for at most one determinization and one
    minimization in place of three or four of each.  Any other ``Not`` is
    complemented; an ``Or`` with a side that is not negated keeps that
    route too, since complementing that side costs a determinization of
    its own.
    """
    number, tracks, kids = shape
    n = memo.get(number)
    if n is None:
        n = memo[number] = _comp_node(formula, tracks, kids, dd, memo)
    elif n.alphabet.tracks != tracks:
        n = n.rename_tracks(tracks)
    return n


def _comp_node(formula, tracks, kids, dd, memo):
    alpha = StructuredAlphabet(dd.base, tracks)
    if isinstance(formula, Top):
        return _all_accepting(alpha, dd)
    if isinstance(formula, Letter):
        return _atom_letter(formula, alpha, dd)
    if isinstance(formula, InSet):
        return _atom_inset(formula, alpha, dd)
    if isinstance(formula, Leq):
        return _atom_leq(formula, alpha, dd, strict=False)
    if isinstance(formula, Lt):
        return _atom_leq(formula, alpha, dd, strict=True)
    if isinstance(formula, Succ):
        return _atom_succ(formula, alpha, dd)
    if isinstance(formula, First):
        return _atom_first(formula, alpha, dd)
    if isinstance(formula, Last):
        return _atom_last(formula, alpha, dd)
    if isinstance(formula, Or):
        left = _comp(formula.left, kids[0], dd, memo).extend_tracks(tracks)
        right = _comp(formula.right, kids[1], dd, memo).extend_tracks(tracks)
        return _compact(left.union(right))
    if isinstance(formula, Not):
        body = formula.body
        if isinstance(body, Or) and isinstance(body.left, Not) and isinstance(body.right, Not):
            (_n, _fv, (neg_a, neg_b)), = kids
            left = _comp(body.left.body, neg_a[2][0], dd, memo).extend_tracks(tracks)
            right = _comp(body.right.body, neg_b[2][0], dd, memo).extend_tracks(tracks)
            return left.product(right).minimize().trim()
        return _comp(body, kids[0], dd, memo).complement().minimize().trim()
    if isinstance(formula, Exists):
        v = formula.var
        inner = _comp(formula.body, kids[0], dd, memo).extend_tracks(tracks + (v,))
        if not is_second_order(v):
            inner = inner.intersect(_singleton(v, inner.alphabet, dd))
        return _compact(inner.project_track(v))
    raise TypeError(f"unknown formula node {formula!r}")


def compile_guarded(formula: Formula, signature, base) -> GuardedNfa:
    """``mso_compile`` before the automaton is written out letter by
    letter: its transitions still decision diagrams."""
    sig = tuple(signature)
    if len(set(sig)) != len(sig):
        raise MsoSyntaxError("signature variables must be distinct")
    missing = formula.free_vars() - set(sig)
    if missing:
        raise UnboundVariableError(f"free variables not in signature: {sorted(missing)}")
    shape = _shape(formula, sig, {})
    alpha = StructuredAlphabet(frozenset(base), sig)
    dd = Diagrams(alpha.base)
    n = _comp(formula, shape, dd, {}).extend_tracks(sig)
    for v in sig:
        if not is_second_order(v):
            n = n.intersect(_singleton(v, alpha, dd))
    return n.trim()


def mso_compile(formula: Formula, signature, base) -> StructuredNfa:
    """Compile to an NFA over base x B^len(signature).

    The result accepts exactly the extended words modelling the formula;
    first-order tracks only ever accept with exactly one 1-bit.  Each
    subformula is compiled over its free variables' tracks only; the
    missing tracks are added once, before the singleton intersections.
    The automata in between keep their transitions as decision diagrams
    in one table, dropped when the compile returns.
    """
    return compile_guarded(formula, signature, base).to_nfa()


def compile_dfa(formula: Formula, signature, base) -> StructuredNfa:
    """``mso_compile(formula, signature, base).minimize()``, minimized on
    the decision diagrams, so the NFA is never written out letter by letter."""
    return compile_guarded(formula, signature, base).minimize().to_nfa()


# -- surface syntax ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(<=|->|[()&|!.<=+]|[A-Za-z_][A-Za-z0-9_]*|\d+)")

_KEYWORDS = {"exists", "exists2", "forall", "forall2", "in", "first", "last", "true", "false"}


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or not m.group(1):
            if text[pos:].strip():
                raise MsoSyntaxError(f"cannot tokenize {text[pos:pos+12]!r} at column {pos}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise MsoSyntaxError("unexpected end of formula")
        self.i += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            raise MsoSyntaxError(f"expected {tok!r}, got {t!r}")

    def parse(self):
        f = self.expr()
        if self.peek() is not None:
            raise MsoSyntaxError(f"trailing tokens starting at {self.peek()!r}")
        return f

    def expr(self):
        t = self.peek()
        if t in ("exists", "exists2", "forall", "forall2"):
            self.next()
            v = self.next()
            if t.endswith("2") != is_second_order(v):
                kind = "second-order (uppercase)" if t.endswith("2") else "first-order (lowercase)"
                raise MsoSyntaxError(f"{t} expects a {kind} variable, got {v!r}")
            self.expect(".")
            body = self.expr()
            return Exists(v, body) if t.startswith("exists") else forall(v, body)
        return self.impl_expr()

    def impl_expr(self):
        f = self.or_expr()
        if self.peek() == "->":
            self.next()
            return implies(f, self.impl_expr())
        return f

    def or_expr(self):
        f = self.and_expr()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self):
        f = self.not_expr()
        while self.peek() == "&":
            self.next()
            f = f_and(f, self.not_expr())
        return f

    def not_expr(self):
        if self.peek() == "!":
            self.next()
            return Not(self.not_expr())
        if self.peek() in ("exists", "exists2", "forall", "forall2"):
            # a quantifier binds the rest of the current subexpression
            return self.expr()
        return self.atom()

    def atom(self):
        t = self.next()
        if t == "(":
            f = self.expr()
            self.expect(")")
            return f
        if t == "true":
            return Top()
        if t == "false":
            return bottom()
        if t in ("first", "last"):
            self.expect("(")
            v = self.next()
            self.expect(")")
            return First(v) if t == "first" else Last(v)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            raise MsoSyntaxError(f"unexpected token {t!r}")
        if self.peek() == "(":
            self.next()
            v = self.next()
            self.expect(")")
            return Letter(t, v)
        x = t
        op = self.next()
        if op == "in":
            X = self.next()
            if not is_second_order(X):
                raise MsoSyntaxError(f"'in' expects a second-order variable, got {X!r}")
            return InSet(x, X)
        if op == "<=":
            return Leq(x, self.next())
        if op == "<":
            return Lt(x, self.next())
        if op == "=":
            y = self.next()
            if self.peek() == "+":
                self.next()
                k = self.next()
                if not k.isdigit():
                    raise MsoSyntaxError(f"expected an integer after '+', got {k!r}")
                return Succ(x, y, int(k))
            return eq(x, y)
        raise MsoSyntaxError(f"unexpected token {op!r} after variable {x!r}")


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax.

    Connectives: ``&  |  !``, quantifiers ``exists x.``, ``exists2 X.``,
    ``forall x.``, ``forall2 X.``, atoms ``a(x)``, ``x <= y``, ``x < y``,
    ``x = y``, ``x = y + 1``, ``x in X``, ``first(x)``, ``last(x)``,
    ``true``, ``false``, parentheses.
    """
    return _Parser(_tokenize(text)).parse()
