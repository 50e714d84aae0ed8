"""Rational resynchronizers for one-way transducers.

A one-way origin graph over disjoint alphabets is encoded as an
interleaved word: each output letter sits right after its origin's input
letter (outputs sharing an origin keep their order).  A rational
resynchronizer is a regular language over pairs of letters, read over the
two interleavings zipped position by position; the encodings of a pair
with equal words always have equal length.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .containment import contains_upto
from .transducers import OriginGraph, OneWayTransducer, RunCaps


class InterleaveError(ValueError):
    pass


class RegexError(ValueError):
    pass


@dataclass(frozen=True)
class InterleavedWord:
    word: tuple
    input_alphabet: frozenset
    output_alphabet: frozenset

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(self.output_alphabet))
        if self.input_alphabet & self.output_alphabet:
            raise InterleaveError(
                "input and output alphabets must be disjoint; rename letters first")
        seen_input = False
        for c in self.word:
            if c in self.input_alphabet:
                seen_input = True
            elif c in self.output_alphabet:
                if not seen_input:
                    raise InterleaveError("an output letter precedes every input letter")
            else:
                raise InterleaveError(f"letter {c!r} is in neither alphabet")

    def projections(self):
        u = tuple(c for c in self.word if c in self.input_alphabet)
        v = tuple(c for c in self.word if c in self.output_alphabet)
        return u, v


def interleave(g: OriginGraph, input_alphabet, output_alphabet) -> InterleavedWord:
    """Encode a one-way origin graph; origins must be nondecreasing."""
    for a, b in zip(g.orig, g.orig[1:]):
        if b < a:
            raise InterleaveError(
                "origins decrease along the output; not realizable by a one-way run")
    by_origin = {}
    for t, o in enumerate(g.orig):
        by_origin.setdefault(o, []).append(g.output[t])
    out = []
    for p in range(1, len(g.input) + 1):
        out.append(g.input[p - 1])
        out.extend(by_origin.get(p, ()))
    return InterleavedWord(tuple(out), input_alphabet, output_alphabet)


def deinterleave(w: InterleavedWord) -> OriginGraph:
    u = []
    v = []
    orig = []
    for c in w.word:
        if c in w.input_alphabet:
            u.append(c)
        else:
            v.append(c)
            orig.append(len(u))
    return OriginGraph(tuple(u), tuple(v), tuple(orig))


# -- acceptors over the paired alphabet ---------------------------------------

class RationalResync:
    """Acceptor interface over pair letters (a, b)."""

    name = ""

    def initial_states(self):
        raise NotImplementedError

    def step(self, state, pair):
        raise NotImplementedError

    def is_final(self, state):
        raise NotImplementedError

    def accepts_pairs(self, pairs) -> bool:
        cur = set(self.initial_states())
        for pair in pairs:
            nxt = set()
            for s in cur:
                nxt.update(self.step(s, pair))
            cur = nxt
            if not cur:
                return False
        return any(self.is_final(s) for s in cur)


def zip_pair(w1: InterleavedWord, w2: InterleavedWord):
    if len(w1.word) != len(w2.word):
        raise InterleaveError("interleavings of one graph pair must have equal length")
    return tuple(zip(w1.word, w2.word))


def rational_pair_accepts(r: RationalResync, g1: OriginGraph, g2: OriginGraph,
                          input_alphabet, output_alphabet) -> bool:
    """Is (interleave(g1), interleave(g2)) in the pair language?"""
    if g1.input != g2.input or g1.output != g2.output:
        raise InterleaveError("rational resynchronization relates graphs with equal words")
    w1 = interleave(g1, input_alphabet, output_alphabet)
    w2 = interleave(g2, input_alphabet, output_alphabet)
    return r.accepts_pairs(zip_pair(w1, w2))


# -- regular expressions over pair letters ------------------------------------

@dataclass(frozen=True)
class _Atom:
    pair: tuple


@dataclass(frozen=True)
class _Cat:
    parts: tuple


@dataclass(frozen=True)
class _Union:
    parts: tuple


@dataclass(frozen=True)
class _Star:
    body: object


def atom(a, b):
    return _Atom((a, b))


def cat(*parts):
    return _Cat(tuple(parts))


def alt(*parts):
    return _Union(tuple(parts))


def star(body):
    return _Star(body)


def plus(body):
    return _Cat((body, _Star(body)))


class RegexResync(RationalResync):
    """Thompson construction with epsilon edges resolved by closure."""

    def __init__(self, ast, name=""):
        self.name = name
        self._edges = {}       # state -> list of (pair, state)
        self._eps = {}         # state -> list of state
        self._counter = itertools.count()
        self._init, self._final = self._build(ast)
        self._closure_cache = {}

    def _new(self):
        return next(self._counter)

    def _build(self, node):
        if isinstance(node, _Atom):
            s, t = self._new(), self._new()
            self._edges.setdefault(s, []).append((node.pair, t))
            return s, t
        if isinstance(node, _Cat):
            if not node.parts:
                s = self._new()
                return s, s
            first, last = None, None
            for part in node.parts:
                a, b = self._build(part)
                if first is None:
                    first = a
                else:
                    self._eps.setdefault(last, []).append(a)
                last = b
            return first, last
        if isinstance(node, _Union):
            s, t = self._new(), self._new()
            for part in node.parts:
                a, b = self._build(part)
                self._eps.setdefault(s, []).append(a)
                self._eps.setdefault(b, []).append(t)
            return s, t
        if isinstance(node, _Star):
            s, t = self._new(), self._new()
            a, b = self._build(node.body)
            self._eps.setdefault(s, []).extend((a, t))
            self._eps.setdefault(b, []).extend((a, t))
            return s, t
        raise TypeError(f"unknown regex node {node!r}")

    def _closure(self, state):
        if state not in self._closure_cache:
            out = {state}
            stack = [state]
            while stack:
                s = stack.pop()
                for t in self._eps.get(s, ()):
                    if t not in out:
                        out.add(t)
                        stack.append(t)
            self._closure_cache[state] = frozenset(out)
        return self._closure_cache[state]

    def initial_states(self):
        return self._closure(self._init)

    def step(self, state, pair):
        out = set()
        for (p, t) in self._edges.get(state, ()):
            if p == pair:
                out.update(self._closure(t))
        return out

    def is_final(self, state):
        return state == self._final

    def enumerate_accepted(self, alphabet_pairs, max_len):
        """All accepted pair words up to max_len.

        Walks the automaton, so only live prefixes are extended; equivalent
        to the full product sweep but usable for sparse pair languages.
        """
        out = []
        letters = sorted(alphabet_pairs)

        def rec(states, word):
            if any(self.is_final(s) for s in states):
                out.append(tuple(word))
            if len(word) == max_len:
                return
            for pair in letters:
                nxt = set()
                for s in states:
                    nxt.update(self.step(s, pair))
                if nxt:
                    word.append(pair)
                    rec(nxt, word)
                    word.pop()

        rec(set(self.initial_states()), [])
        return out


_PAIR_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_]+)\s*/\s*([A-Za-z0-9_]+)|([()*+]))")


def parse_pair_regex(text: str, name="") -> RegexResync:
    """Pair regex surface syntax: atoms a/b, binary + for union, postfix *
    for iteration, juxtaposition for concatenation, parentheses.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _PAIR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise RegexError(f"cannot tokenize {text[pos:pos+10]!r}")
            break
        if m.group(3):
            tokens.append(m.group(3))
        else:
            tokens.append((m.group(1), m.group(2)))
        pos = m.end()

    ix = 0

    def peek():
        return tokens[ix] if ix < len(tokens) else None

    def advance():
        nonlocal ix
        t = peek()
        ix += 1
        return t

    def parse_union():
        parts = [parse_concat()]
        while peek() == "+":
            advance()
            parts.append(parse_concat())
        return parts[0] if len(parts) == 1 else _Union(tuple(parts))

    def parse_concat():
        parts = []
        while peek() is not None and peek() not in (")", "+"):
            parts.append(parse_postfix())
        if not parts:
            raise RegexError("empty concatenation")
        return parts[0] if len(parts) == 1 else _Cat(tuple(parts))

    def parse_postfix():
        node = parse_atom()
        while peek() == "*":
            advance()
            node = _Star(node)
        return node

    def parse_atom():
        t = advance()
        if t == "(":
            node = parse_union()
            if advance() != ")":
                raise RegexError("unbalanced parentheses")
            return node
        if isinstance(t, tuple):
            return _Atom(t)
        raise RegexError(f"unexpected token {t!r}")

    node = parse_union()
    if peek() is not None:
        raise RegexError(f"trailing tokens at {peek()!r}")
    return RegexResync(node, name=name)


def make_rational_block(input_alphabet=("a", "b"), output_alphabet=("c", "d")) -> RegexResync:
    """The block-shift pair language over a/b inputs and c/d outputs:
    origins at the start of an a-block may move to the block's end."""
    a, b = sorted(input_alphabet)
    c, d = sorted(output_alphabet)
    e_bd = cat(atom(b, b), atom(d, d))
    e_block = cat(atom(a, a), alt(atom(c, c), cat(atom(c, a), star(atom(a, a)), atom(a, c))))
    ast = cat(star(e_bd), star(cat(e_block, plus(e_bd))), e_block, star(e_bd))
    return RegexResync(ast, name="R_block")


class ShiftResync(RationalResync):
    """Left shift by at most k: each output's origin in the first component
    is at most k input letters to the right of its origin in the second.

    States are two bounded queues: input letters the first component has
    read ahead, and pending outputs the second component has emitted ahead,
    each tagged with its accumulated shift.
    """

    def __init__(self, k, input_alphabet, output_alphabet):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.name = f"rational-shift({k})"
        self.input_alphabet = frozenset(input_alphabet)
        self.output_alphabet = frozenset(output_alphabet)
        if self.input_alphabet & self.output_alphabet:
            raise InterleaveError("alphabets must be disjoint")

    def initial_states(self):
        return (((), ()),)

    def is_final(self, state):
        uq, pending = state
        return not uq and not pending

    def step(self, state, pair):
        uq, pending = state
        x, y = pair
        if y in self.output_alphabet:
            pending = pending + ((y, len(pending)),)
        if x in self.output_alphabet:
            if not pending:
                return ()
            (c, age), pending = pending[0], pending[1:]
            if c != x or not 0 <= age <= self.k:
                return ()
        if x in self.input_alphabet:
            uq = uq + (x,)
            aged = tuple((c, age + 1) for (c, age) in pending)
            if any(age > self.k for (_c, age) in aged):
                return ()
            pending = aged
        if y in self.input_alphabet:
            if not uq or uq[0] != y:
                return ()
            uq = uq[1:]
        if len(uq) > self.k + 1:
            return ()
        return ((uq, pending),)


def make_rational_shift(k, input_alphabet, output_alphabet) -> ShiftResync:
    return ShiftResync(k, input_alphabet, output_alphabet)


def make_rational_identity(input_alphabet, output_alphabet) -> ShiftResync:
    return ShiftResync(0, input_alphabet, output_alphabet)


# -- containment with rational membership -------------------------------------

def contains_upto_rational(t1, t2, r: RationalResync, max_input_len, caps: RunCaps):
    """Sweep semantics of contains_upto with rational membership.

    Both transducers must be one-way; candidate partners are enumerated in
    deterministic order per (input, output) and tested through the zipped
    interleavings.
    """
    if not isinstance(t1, OneWayTransducer) or not isinstance(t2, OneWayTransducer):
        raise InterleaveError("rational resynchronizers only relate one-way transducers")
    sig, gam = t1.input_alphabet, t1.output_alphabet

    def membership(cand, sigma_p):
        return True if rational_pair_accepts(r, cand, sigma_p, sig, gam) else None

    return contains_upto(t1, t2, r, max_input_len, caps, membership=membership)
