"""Regular (MSO) resynchronizers: membership, boundedness, builders,
composition, and the extended four-component variant.

A resynchronizer is an MSO formula gamma over the input word with free
variables (I_1 .. I_m, x, y): the origin x of an output position may be
redirected to y.  A pair of origin graphs sharing input and output is
related when one parameter valuation makes gamma hold at every output
position.

The extended form (Bojanczyk, Daviaud, Guillon, Penelle, ICALP 2017) adds
alpha on the input, beta on the output parameters, a gamma per output
type and a delta between consecutive outputs.

Membership is one depth-first search over the input positions
(``_least_valuation``) for both forms, with or without parameters.  It
runs one DFA state per check (gamma, x, y), all reading the same row of
parameter bits at each position from their gammas' step tables, tries
the rows in lexicographic order and abandons a state tuple as soon as a
state is its gamma's dead state, so the first valuation found is the
least one, position-major.  A plain resynchronizer has one check per
distinct origin pair (x, y) of the output; an extended one adds alpha
and the deltas as checks, and tries the output-parameter valuations that
beta accepts one by one.  The naive evaluator answers beta and re-checks
witnesses; the test suite checks the search against brute-force searches
over all valuations in the same order.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, fields

from . import mso
from .mso import (Formula, Top, InSet, Succ, Lt, Leq, Letter, First, Last, Or, Not, Exists,
                  f_and, forall, implies, eq, evaluate, is_second_order)
from .automata import GuardedNfa, StructuredNfa, AmbiguityReport, _closure, _scc
from .transducers import OriginGraph

X, Y = "x", "y"


class ResyncError(ValueError):
    pass


@dataclass(frozen=True)
class ResyncWitness:
    """Parameter valuation: one bit vector of input length per parameter."""
    params: tuple        # tuple of bit tuples, aligned with R.params
    out_params: tuple = ()

    def param_sets(self):
        return tuple(frozenset(i + 1 for i, b in enumerate(vec) if b) for vec in self.params)


@dataclass(frozen=True)
class _LetterClasses:
    """Gamma's minimized DFA with the x bit taken out of its letters.

    States are numbered in ``repr`` order: state i is ``states[i]``, so
    tuples of numbers sort as the states' reprs do.  Letters that act
    alike on every state, both with x = 0 and with x = 1, form one class;
    ``classes`` holds (least letter, step0, step1) per class, in order of
    least letter, where step0[i] and step1[i] number the states that the
    letter leads to from state i without and with the x bit.
    """
    states: tuple
    init: int
    final: frozenset
    classes: tuple


def _check_free_vars(what, formula, allowed):
    extra = formula.free_vars() - set(allowed)
    if extra:
        raise ResyncError(f"{what} uses unknown free variables {sorted(extra)}")


class Resynchronizer:
    """Simplified regular resynchronizer: m input parameters plus gamma.

    gamma is a formula with free variables among params + (x, y), or
    directly an automaton whose tracks are params + (x, y).  The base
    alphabet is fixed at construction; graphs checked against this
    resynchronizer must use letters from it.
    """

    def __init__(self, params=(), gamma=None, gamma_automaton=None, base=("a", "b"), name=""):
        self.params = tuple(params)
        self.gamma_formula = gamma
        self.name = name
        if (gamma is None) == (gamma_automaton is None):
            raise ResyncError("provide exactly one of gamma or gamma_automaton")
        if gamma_automaton is not None:
            want = self.params + (X, Y)
            if gamma_automaton.alphabet.tracks != want:
                raise ResyncError(
                    f"gamma automaton tracks {gamma_automaton.alphabet.tracks} != {want}")
            self.base = frozenset(gamma_automaton.alphabet.base)
        else:
            self.base = frozenset(base)
            _check_free_vars("gamma", gamma, self.params + (X, Y))
        for p in self.params:
            if not is_second_order(p):
                raise ResyncError(f"parameter names must be second-order (uppercase): {p!r}")
        self._nfa = gamma_automaton
        self._dfa = None
        self._steps = None
        self._dead = None    # the gamma-DFA state from which nothing is accepted
        self._search = None  # see _search_table
        self._classes = None  # _LetterClasses of gamma for boundedness

    @property
    def m(self):
        return len(self.params)

    @property
    def signature(self):
        return self.params + (X, Y)

    def _compiled_formula(self):
        """gamma with its bound variables renamed apart from the tracks and
        from each other (``_unshadowed``), the form the compiler takes; the
        naive evaluator reads ``gamma_formula`` as given."""
        return _unshadowed(self.gamma_formula, frozenset(self.signature))

    def gamma_nfa(self) -> StructuredNfa:
        if self._nfa is None:
            self._nfa = mso.mso_compile(self._compiled_formula(), self.signature, self.base)
        return self._nfa

    def gamma_dfa(self):
        """The minimized gamma, complete on states 0 .. n - 1 with initial
        state 0 (``minimize`` numbers its blocks breadth-first from the
        initial one), and the step table every reader of its moves reads:
        ``steps[a][s]`` lists the successors of s on the base letter a by
        bits over params + (x, y) in ``itertools.product`` order, entry
        ``4 * r + 2 * x + y`` for row r.

        Both come from one walk over the minimized diagrams
        (``GuardedNfa.to_dfa``), the automaton's transitions in
        ``to_nfa``'s order.  The dead state is found with them, for
        ``_search_table``: the one state from which no word is accepted,
        or None when every state can still accept.  In a minimized complete
        DFA it is the non-final state whose every move leads back to
        itself, kept as ``_dead``."""
        if self._dfa is None:
            if self.gamma_formula is not None:
                g = mso.compile_guarded(self._compiled_formula(), self.signature, self.base)
            else:
                g = GuardedNfa.from_nfa(self._nfa)
            d, steps = g.minimize().to_dfa()
            self._dead = next((s for s in range(len(d.states)) if s not in d.final
                               and all(q == s for rows in steps.values() for q in rows[s])),
                              None)
            self._dfa, self._steps = d, steps
            self._search = (steps, d.final, self._dead,
                            tuple(itertools.product((0, 1), repeat=self.m)))
        return self._dfa, self._steps

    def _search_table(self):
        """What ``_least_valuation`` reads of this gamma, built once with
        the step table: the steps, the final states, the dead state and
        the rows of parameter bits in lexicographic order."""
        if self._search is None:
            self.gamma_dfa()
        return self._search

    def _letter_classes(self):
        """The gamma DFA as the boundedness searches read it; built once from
        the step table, where the letter (a, row + (y,)) without the x bit
        takes entry ``4 * r + 2 * x + y``, r the number of the row."""
        if self._classes is None:
            dfa, steps = self.gamma_dfa()
            states = tuple(sorted(dfa.states, key=repr))
            num = {s: i for i, s in enumerate(states)}
            classes = {}   # filled in letter order, so each class keys its least letter
            for a in sorted(steps):
                table = [steps[a][s] for s in states]
                for r, row in enumerate(itertools.product((0, 1), repeat=self.m)):
                    for y in (0, 1):
                        z0 = tuple(num[succ[4 * r + y]] for succ in table)
                        z1 = tuple(num[succ[4 * r + 2 + y]] for succ in table)
                        classes.setdefault((z0, z1), (a, row + (y,)))
            self._classes = _LetterClasses(
                states, num[next(iter(dfa.initial))], frozenset(num[s] for s in dfa.final),
                tuple((ltr, z0, z1) for ((z0, z1), ltr) in classes.items()))
        return self._classes

    def gamma_holds(self, u, param_bits, xhat, yhat) -> bool:
        """Does (u, params, x=xhat, y=yhat) satisfy gamma?

        Uses the naive evaluator when a formula is available, so witness
        checking is independent of the automaton pipeline.
        """
        if self.gamma_formula is not None:
            env = {X: xhat, Y: yhat}
            for name, vec in zip(self.params, param_bits):
                env[name] = frozenset(i + 1 for i, b in enumerate(vec) if b)
            return evaluate(self.gamma_formula, tuple(u), env)
        return self.gamma_holds_dfa(u, param_bits, xhat, yhat)

    def gamma_holds_dfa(self, u, param_bits, xhat, yhat) -> bool:
        """Same question answered by the compiled automaton."""
        dfa, steps = self.gamma_dfa()
        state = next(iter(dfa.initial))
        for p, a in enumerate(u, start=1):
            row = 0
            for vec in param_bits:
                row = 2 * row + vec[p - 1]
            state = steps[a][state][4 * row + 2 * (p == xhat) + (p == yhat)]
        return state in dfa.final


# -- membership -------------------------------------------------------------

def _check_graph_pair(sigma, sigma_p):
    if sigma.input != sigma_p.input or sigma.output != sigma_p.output:
        raise ResyncError("resynchronization relates graphs with equal input and output words")


def check_witness(resync, sigma: OriginGraph, sigma_p: OriginGraph, witness: ResyncWitness) -> bool:
    """Re-check a parameter valuation against gamma at every output position."""
    _check_graph_pair(sigma, sigma_p)
    pairs = {(sigma.orig[t], sigma_p.orig[t]) for t in range(len(sigma.output))}
    return all(resync.gamma_holds(sigma.input, witness.params, xh, yh) for (xh, yh) in pairs)


def _least_valuation(checks, u, m):
    """The least valuation of m parameters, position-major, under which
    every check (gamma, x, y) holds on the input u: gamma a
    ``Resynchronizer`` over those m parameters, read with x and y marked at
    the positions x and y.  Returns a tuple of m bit vectors, or None.

    The search is depth-first over positions with one DFA state per check;
    at each position it reads each state's entries of its gamma's step
    table for the letter and the check's (x, y) marks, tries the rows of
    parameter bits in lexicographic order, cuts a state tuple in which a
    state is its gamma's dead state, and remembers the (position, tuple)
    nodes that failed.  Without parameters there is one row, the empty
    one.  Its explicit stack keeps long inputs from recursing.
    """
    n = len(u)
    if not checks:
        return ((0,) * n,) * m
    tables = [g._search_table() for (g, _x, _y) in checks]
    marks = [(t[0], x, y) for t, (_g, x, y) in zip(tables, checks)]
    finals = [t[1] for t in tables]
    start = (0,) * len(checks)    # gamma_dfa numbers the initial state 0
    # a state tuple is cut when a state is its check's dead state; when the
    # checks share one dead state, one test over the tuple finds it
    deads = tuple(t[2] for t in tables)
    dead = deads[0] if deads.count(deads[0]) == len(deads) else None
    rows = tables[0][3]

    def choices(p, states):   # (row, next state tuple) at position p + 1, rows in order
        if p == n:
            return iter(())
        a = u[p]
        p += 1
        moves = [steps[a][s][2 * (p == x) + (p == y)::4] for s, (steps, x, y) in zip(states, marks)]
        return zip(rows, zip(*moves))

    # depth-first over (position, state tuple); frame p + 1 holds the row read at p + 1
    stack, failed = [(None, start, choices(0, start))], set()
    while stack:
        _row, states, todo = stack[-1]
        p = len(stack) - 1
        if p == n and all(map(operator.contains, finals, states)):
            return tuple(zip(*(row for (row, _s, _t) in stack[1:])))
        for row, nxt in todo:
            if (dead not in nxt if dead is not None else not any(map(operator.eq, nxt, deads))) \
                    and (p + 1, nxt) not in failed:
                stack.append((row, nxt, choices(p + 1, nxt)))
                break
        else:
            failed.add((p, states))
            stack.pop()
    return None


def pair_in_resync(resync: Resynchronizer, sigma: OriginGraph, sigma_p: OriginGraph):
    """Decide (sigma, sigma') in [[R]]; returns a ResyncWitness or None.

    One check of gamma per distinct origin pair (x, y) of the output, in
    ``_least_valuation``'s search, so the witness is the least parameter
    valuation position-major: its per-position rows of parameter bits are
    compared lexicographically.
    """
    _check_graph_pair(sigma, sigma_p)
    if not set(sigma.input) <= resync.base:
        raise ResyncError("input word uses letters outside the resynchronizer's base alphabet")
    pairs = sorted({(sigma.orig[t], sigma_p.orig[t]) for t in range(len(sigma.output))})
    found = _least_valuation([(resync, x, y) for (x, y) in pairs], sigma.input, resync.m)
    return None if found is None else ResyncWitness(found)


# -- boundedness -------------------------------------------------------------

@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    report: AmbiguityReport | None = None   # pattern evidence when unbounded
    detail: str = ""


def _place_once_unbounded(resync):
    """Infinite-ambiguity test specialized to the place-once NFA.

    Any infinite-ambiguity pattern of the source-guessing NFA has the shape
    p = (d, unplaced), q = (m, placed) with one pump word looping both, since
    the unplaced and placed halves are deterministic.  Equivalently, the
    graph over triples (a, b, t in D + {unplaced}) with extra restart edges
    (a, b, b) -> (a, b, unplaced) has a cycle through an eligible restart
    edge.  Polynomial in |D|^3; reads one letter per class of
    ``Resynchronizer._letter_classes``, whose numbering also orders the
    search, and returns a pump description or None.
    """
    tab = resync._letter_classes()
    fwd = {}
    bwd = {}
    for (_ltr, z0, _z1) in tab.classes:
        for p, q in enumerate(z0):
            fwd.setdefault(p, set()).add(q)
            bwd.setdefault(q, set()).add(p)
    acc = _closure({tab.init}, fwd)
    coacc = _closure(tab.final, bwd)

    # seeds and successors in number order, so that the pump reported does
    # not depend on set iteration order; that is the triples' repr order,
    # since a minimized DFA's states are ints and unplaced is numbered -1
    U = -1
    queue = deque((a, b, U) for a in sorted(acc) for b in sorted(coacc))
    seen = set(queue)
    edges = {}
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        a, b, t = node
        outs = set()
        for (_ltr, z0, z1) in tab.classes:
            na, nb = z0[a], z0[b]
            if t == U:
                outs.add((na, nb, U))
                outs.add((na, nb, z1[a]))
            else:
                outs.add((na, nb, z0[t]))
        if t == b and a in acc and b in coacc:
            outs.add((a, b, U))   # restart edge: a pump cycle may recombine here
        edges[node] = outs = sorted(outs)
        for nxt in outs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    comp = _scc(order, edges)
    for node in order:
        a, b, t = node
        if t == b and a in acc and b in coacc and comp[(a, b, U)] == comp[node]:
            return (tab.states[a], tab.states[b])
    return None


def is_bounded(resync: Resynchronizer) -> BoundednessResult:
    """Decide boundedness: finitely many sources x per (u, params, y).

    Sources biject with the accepting runs of the source-guessing NFA, an
    NFA over base x B^(m+1) on states (gamma state, x placed yet) that
    places the single x bit nondeterministically, so boundedness is finite
    ambiguity of that NFA; the test suite builds it as an oracle.  The NFA
    is not built here: its place-once structure admits only one
    infinite-ambiguity pattern, which ``_place_once_unbounded`` looks for
    by a polynomial cycle search on the minimized gamma DFA.  The search
    reads the letter classes ``bounded_by`` reads, built once per
    resynchronizer, and orders its nodes by state number, so the pump
    reported is the first in a fixed breadth-first order.
    """
    hit = _place_once_unbounded(resync)
    if hit is None:
        return BoundednessResult(True, None, "no pump cycle with a surviving placement")
    return BoundednessResult(
        False, AmbiguityReport("infinite-polynomial", hit, ()),
        f"pump cycle at gamma states {hit}: one loop admits placements that keep accepting")


@dataclass(frozen=True)
class BoundViolation:
    word: tuple          # base word u
    params: tuple        # bit vectors
    target: int          # position y
    sources: tuple       # more than k accepted source positions


def bounded_by(resync: Resynchronizer, k: int, max_len: int):
    """Exhaustively check bound k on all words up to max_len.

    Explores the (k+1)-fold product of the source-guessing NFA with
    pairwise-distinct placements; unplaced copies share one gamma state, so
    a product state is (shared state, multiset of placed states).  The
    search is breadth-first, so the violation found has the least length.
    It reads one letter per class of ``Resynchronizer._letter_classes``,
    the least: a later letter of the class reaches the same states.  Each
    letter places at most one source, so a state whose placements and
    remaining letters together fall short of k + 1 is dropped unexpanded;
    every ancestor of a state that can still become a violation can too.
    Returns None when the bound holds on the sweep, else a BoundViolation.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if max_len <= k:
        return None    # no word that short has k + 1 sources
    tab = resync._letter_classes()
    final = tab.final
    start = (tab.init, ())
    seen = {start}
    # each node links to its parent: (letter, link) back to the start's None
    frontier = [(start, None)]
    for depth in range(max_len):
        # a child has max_len - depth - 1 letters left, so with fewer
        # placements than this it can no longer reach k + 1
        need = k + 2 + depth - max_len
        nxt = []
        for ((d0, placed), link) in frontier:
            keep = len(placed) >= need
            place = len(placed) <= k
            for (ltr, z0, z1) in tab.classes:
                nd0 = z0[d0]
                nplaced = tuple(sorted([z0[s] for s in placed]))
                chain = (ltr, link)
                cands = [(nd0, nplaced)] if keep else []
                if place:
                    cands.append((nd0, tuple(sorted(nplaced + (z1[d0],)))))
                for state in cands:
                    if state in seen:
                        continue
                    seen.add(state)
                    if len(state[1]) == k + 1 and all(s in final for s in state[1]):
                        return _violation_from_path(resync, chain)
                    nxt.append((state, chain))
        frontier = nxt
    return None


def _violation_from_path(resync, link):
    letters = []
    while link is not None:
        ltr, link = link
        letters.append(ltr)
    letters.reverse()
    u = tuple(a for (a, _row) in letters)
    rows = [row for (_a, row) in letters]
    params = tuple(tuple(row[i] for row in rows) for i in range(resync.m))
    ys = [p + 1 for p, row in enumerate(rows) if row[resync.m]]
    target = ys[0] if ys else 0
    sources = tuple(xh for xh in range(1, len(u) + 1)
                    if resync.gamma_holds(u, params, xh, target))
    return BoundViolation(u, params, target, sources)


# -- builders ----------------------------------------------------------------

def make_identity(base=("a", "b")):
    return Resynchronizer((), eq(X, Y), base=base, name="identity")


def make_universal(base=("a", "b")):
    return Resynchronizer((), Top(), base=base, name="universal")


def make_pm1(base=("a", "b")):
    return Resynchronizer((), Or(Succ(X, Y, 1), Succ(Y, X, 1)), base=base, name="pm1")


def make_shift(k, base=("a", "b")):
    """Left shift by at most k: y <= x <= y + k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    gamma = mso.f_or(*[Succ(X, Y, j) for j in range(k + 1)])
    return Resynchronizer((), gamma, base=base, name=f"shift({k})")


def make_first(base=("a", "b")):
    return Resynchronizer((), First(X), base=base, name="first-source")


def make_param_example(base=("a", "b")):
    """One parameter; gamma = (I = {x}) or (x = y)."""
    i_is_x = f_and(InSet(X, "I"), forall("w", implies(InSet("w", "I"), eq("w", X))))
    return Resynchronizer(("I",), Or(i_is_x, eq(X, Y)), base=base, name="param-example")


def make_block(base=("a", "b")):
    """Origins at the start of an a-block may move to its end; b stays put."""
    inside_all_a = forall("z", implies(f_and(Leq(X, "z"), Leq("z", Y)), Letter("a", "z")))
    no_a_before = Not(Exists("w", f_and(Succ(X, "w", 1), Letter("a", "w"))))
    no_a_after = Not(Exists("w", f_and(Succ("w", Y, 1), Letter("a", "w"))))
    move = f_and(Leq(X, Y), inside_all_a, no_a_before, no_a_after)
    stay = f_and(Letter("b", X), eq(X, Y))
    return Resynchronizer((), Or(move, stay), base=base, name="block")


def rk_param_names(k):
    return tuple(f"Right_{i}" for i in range(k)) + tuple(f"Left_{i}" for i in range(k))


def make_Rk(k, base=("a", "b")):
    """The universal 2k-parameter resynchronizer for k-traversal pairs.

    gamma = (x = y) or R_trav or L_trav, where positions sharing a Right_i
    label never traverse each other rightward (no same-label position
    strictly between source and target), and symmetrically for Left_i.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    parts = [eq(X, Y)]
    for i in range(k):
        ri = f"Right_{i}"
        parts.append(f_and(
            InSet(X, ri), Lt(X, Y),
            forall("z", implies(f_and(Lt(X, "z"), Lt("z", Y)), Not(InSet("z", ri))))))
    for i in range(k):
        li = f"Left_{i}"
        parts.append(f_and(
            InSet(X, li), Lt(Y, X),
            forall("z", implies(f_and(Lt(Y, "z"), Lt("z", X)), Not(InSet("z", li))))))
    return Resynchronizer(rk_param_names(k), mso.f_or(*parts), base=base, name=f"R_{k}")


# -- composition --------------------------------------------------------------

# the fields of a formula node that name a variable; its other fields are
# subformulas, letters and offsets
_VAR_FIELDS = frozenset({"var", "x", "y", "X"})


def _map_vars(g, sub, bound=frozenset()):
    """g with every variable name v replaced by sub(v, bound), bound the
    names that the enclosing ``Exists`` nodes bind, a node's own included."""
    if isinstance(g, Exists):
        bound = bound | {g.var}
    return type(g)(*(
        _map_vars(value, sub, bound) if isinstance(value, Formula)
        else sub(value, bound) if f.name in _VAR_FIELDS else value
        for f in fields(g) for value in (getattr(g, f.name),)))


def _all_var_names(f: Formula):
    out = set()
    _map_vars(f, lambda v, _bound: out.add(v) or v)
    return out


def rename_free(f: Formula, mapping):
    """f with its free variables renamed by mapping; a variable that an
    ``Exists`` binds keeps its name within that ``Exists``."""
    return _map_vars(f, lambda v, bound: v if v in bound else mapping.get(v, v))


def _unshadowed(g, taken):
    """g with each variable that an ``Exists`` binds renamed, when its name
    is in taken or bound further out, to a name that neither holds and g
    does not use.  The formula means the same, in the form the compiler
    takes: no binding there shadows a track or an outer binding.  A
    subformula in which nothing is renamed is returned as it is."""
    if isinstance(g, Exists):
        v, body = g.var, g.body
        if v in taken:
            used = taken | _all_var_names(body)
            while v in used:
                v += "_"
            body = rename_free(body, {g.var: v})
        new = _unshadowed(body, taken | {v})
        return g if new is g.body else Exists(v, new)
    if isinstance(g, Or):
        left, right = _unshadowed(g.left, taken), _unshadowed(g.right, taken)
        return g if left is g.left and right is g.right else Or(left, right)
    if isinstance(g, Not):
        body = _unshadowed(g.body, taken)
        return g if body is g.body else Not(body)
    return g


def compose(r1: Resynchronizer, r2: Resynchronizer) -> Resynchronizer:
    """gamma(I, x, y) = exists mid. gamma1(I1, mid, y) and gamma2(I2, x, mid).

    Applying the result moves an origin first by r2 and then by r1, so the
    relational composition of [[r1]] after [[r2]] is contained in the
    result's semantics (containment, not equality: the intermediate may mix
    across output positions).
    """
    if r1.base != r2.base:
        raise ResyncError("composed resynchronizers must share the base alphabet")
    if r1.gamma_formula is None or r2.gamma_formula is None:
        raise ResyncError("compose requires formula-backed resynchronizers")
    taken = set(r1.params)
    ren2 = {}
    for p in r2.params:
        q = p
        while q in taken:
            q = q + "_b"
        ren2[p] = q
        taken.add(q)
    g2 = rename_free(r2.gamma_formula, ren2)
    used = _all_var_names(r1.gamma_formula) | _all_var_names(g2) | taken | {X, Y}
    mid = "mid"
    while mid in used:
        mid += "_"
    g1 = rename_free(r1.gamma_formula, {X: mid})
    g2 = rename_free(g2, {Y: mid})
    gamma = Exists(mid, f_and(g1, g2))
    params = r1.params + tuple(ren2[p] for p in r2.params)
    return Resynchronizer(params, gamma, base=r1.base,
                          name=f"compose({r1.name or 'r1'},{r2.name or 'r2'})")


# -- extended resynchronizers -------------------------------------------------

class ExtendedResynchronizer:
    """The four-component variant: (alpha, beta, gamma-by-type, delta).

    Output types are output letters enriched with n output-parameter bits.
    gamma_by_type and delta_by_type_pair are total maps over the output
    types, with no other keys; a single shared formula may be given and is
    used for every type (pair).
    """

    def __init__(self, in_params=(), out_params=(), alpha=None, beta=None,
                 gamma=None, gamma_by_type=None, delta=None, delta_by_type_pair=None,
                 input_base=("a", "b"), output_base=("c", "d"), name=""):
        self.in_params = tuple(in_params)
        self.out_params = tuple(out_params)
        self.input_base = frozenset(input_base)
        self.output_base = frozenset(output_base)
        self.alpha = alpha if alpha is not None else Top()
        self.beta = beta if beta is not None else Top()
        self.name = name
        types = self.types()
        if gamma_by_type is None:
            gamma = gamma if gamma is not None else Top()
            gamma_by_type = {t: gamma for t in types}
        if delta_by_type_pair is None:
            delta = delta if delta is not None else Top()
            delta_by_type_pair = {(t1, t2): delta for t1 in types for t2 in types}
        missing = set(types) - set(gamma_by_type)
        if missing:
            raise ResyncError(f"gamma_by_type misses types {sorted(missing)}")
        missing = set(itertools.product(types, repeat=2)) - set(delta_by_type_pair)
        if missing:
            raise ResyncError(f"delta_by_type_pair misses type pairs {sorted(missing)}")
        unknown = set(gamma_by_type) - set(types)
        if unknown:
            raise ResyncError(f"gamma_by_type names unknown types {sorted(unknown, key=repr)}")
        unknown = set(delta_by_type_pair) - set(itertools.product(types, repeat=2))
        if unknown:
            raise ResyncError(f"delta_by_type_pair names unknown type pairs "
                              f"{sorted(unknown, key=repr)}")
        for p in self.in_params + self.out_params:
            if not is_second_order(p):
                raise ResyncError(f"parameter names must be second-order (uppercase): {p!r}")
        _check_free_vars("alpha", self.alpha, self.in_params)
        _check_free_vars("beta", self.beta, self.out_params)
        for tau, f in gamma_by_type.items():
            _check_free_vars(f"gamma of type {tau}", f, self.in_params + (X, Y))
        for pair, f in delta_by_type_pair.items():
            _check_free_vars(f"delta of types {pair}", f, self.in_params + (X, Y))
        self.gamma_by_type = dict(gamma_by_type)
        self.delta_by_type_pair = dict(delta_by_type_pair)
        self._resyncs = {}   # id(formula) -> (formula, its Resynchronizer)

    @property
    def m(self):
        return len(self.in_params)

    @property
    def n_out(self):
        return len(self.out_params)

    def types(self):
        return [(c,) + bits for c in sorted(self.output_base)
                for bits in itertools.product((0, 1), repeat=self.n_out)]

    def _resync(self, formula):
        """alpha, a gamma or a delta as a ``Resynchronizer`` over the input
        parameters: one per formula object, built on first use, so a formula
        shared by several types compiles once.  Alpha may bind x, say: the
        compile renames such bound variables (``_compiled_formula``).  The
        entry holds the formula too, so that its id cannot be reused while
        it is cached."""
        got = self._resyncs.get(id(formula))
        if got is None:
            got = self._resyncs[id(formula)] = (formula, Resynchronizer(
                self.in_params, formula, base=self.input_base))
        return got[1]

    def _gamma_resync(self, tau):
        return self._resync(self.gamma_by_type[tau])

    def _checks(self, tys, orig, orig_p):
        """``_least_valuation``'s checks for the output types tys, in
        first-seen order without repeats: alpha at (1, 1), which marks
        nothing alpha reads; unless orig is None, the gamma of each type t at
        (orig[t], orig_p[t]); the delta of each consecutive pair of types at
        (orig_p[t], orig_p[t + 1])."""
        checks = [(self._resync(self.alpha), 1, 1)]
        if orig is not None:
            checks += [(self._gamma_resync(tau), x, y) for tau, x, y in zip(tys, orig, orig_p)]
        checks += [(self._resync(self.delta_by_type_pair[pair]), y1, y2)
                   for pair, y1, y2 in zip(zip(tys, tys[1:]), orig_p, orig_p[1:])]
        return list(dict.fromkeys(checks))

    def _beta_holds(self, v, obits):
        env = {nm: frozenset(i + 1 for i, b in enumerate(vec) if b)
               for nm, vec in zip(self.out_params, obits)}
        return evaluate(self.beta, tuple(v), env)


def extended_pair_in_resync(ext: ExtendedResynchronizer, sigma: OriginGraph,
                            sigma_p: OriginGraph):
    """Search input and output parameters satisfying all four families.

    Output parameters are searched exhaustively, each valuation that beta
    accepts in ``itertools.product`` order (exponential in n_out * |v|,
    fine at desk scale).  For each, ``_least_valuation`` searches the input
    parameters under alpha, the gamma of each output type and the delta of
    each consecutive pair of types (``ExtendedResynchronizer._checks``), so
    the input witness is the least valuation position-major, as
    ``pair_in_resync``'s is.
    """
    _check_graph_pair(sigma, sigma_p)
    u, v = sigma.input, sigma.output
    if not set(u) <= ext.input_base:
        raise ResyncError("input word uses letters outside the resynchronizer's base alphabet")
    if not set(v) <= ext.output_base:
        raise ResyncError("output word uses letters outside the resynchronizer's output alphabet")
    for obits in itertools.product(itertools.product((0, 1), repeat=len(v)), repeat=ext.n_out):
        if not ext._beta_holds(v, obits):
            continue
        tys = [(c,) + tuple(vec[t] for vec in obits) for t, c in enumerate(v)]
        found = _least_valuation(ext._checks(tys, sigma.orig, sigma_p.orig), u, ext.m)
        if found is not None:
            return ResyncWitness(found, obits)
    return None


def simplify_extended(ext: ExtendedResynchronizer) -> Resynchronizer:
    """Union of the per-type gammas; drops alpha, beta, delta and the output
    parameters.  Over-approximates the semantics and multiplies the bound by
    at most the number of output types.
    """
    gammas = [ext.gamma_by_type[t] for t in ext.types()]
    gamma = mso.f_or(*gammas)
    return Resynchronizer(ext.in_params, gamma, base=ext.input_base,
                          name=f"simplified({ext.name or 'ext'})")


def make_first_to_last(input_base=("a", "b"), output_base=("c", "d")):
    """Only origins at the first input position move, and only to the last."""
    return ExtendedResynchronizer(
        gamma=f_and(First(X), Last(Y)),
        input_base=input_base, output_base=output_base, name="1st-to-last")
