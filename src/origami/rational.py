"""Rational resynchronizers for one-way transducers.

A one-way origin graph over disjoint alphabets is encoded as an
interleaved word: each output letter sits right after its origin's input
letter (outputs sharing an origin keep their order).  A rational
resynchronizer is a regular language over pairs of letters, read over the
two interleavings zipped position by position; the encodings of a pair
with equal words always have equal length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automata import StructuredAlphabet, StructuredNfa
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
    """A pair language, decided by ``accepts_pairs`` on words of pair
    letters (a, b), over interleavings of disjoint input and output
    alphabets."""

    def __init__(self, input_alphabet, output_alphabet, name=""):
        self.input_alphabet = frozenset(input_alphabet)
        self.output_alphabet = frozenset(output_alphabet)
        if self.input_alphabet & self.output_alphabet:
            raise InterleaveError("alphabets must be disjoint")
        self.name = name

    def accepts_pairs(self, pairs) -> bool:
        raise NotImplementedError


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


def _position_automaton(ast):
    """The Glushkov automaton of a pair regex: state 0 is initial, state p
    the p-th atom, and the letter on every edge into p is p's pair."""
    pairs = [None]
    follow = {}

    def walk(node):
        # (nullable, first positions, last positions) of node
        if isinstance(node, _Atom):
            pairs.append(node.pair)
            return False, {len(pairs) - 1}, {len(pairs) - 1}
        if isinstance(node, _Star):
            _nullable, first, last = walk(node.body)
            for p in last:
                follow.setdefault(p, set()).update(first)
            return True, first, last
        if isinstance(node, _Cat):
            nullable, first, last = True, set(), set()
            for part in node.parts:
                n2, f2, l2 = walk(part)
                for p in last:
                    follow.setdefault(p, set()).update(f2)
                if nullable:
                    first |= f2
                last = last | l2 if n2 else l2
                nullable = nullable and n2
            return nullable, first, last
        if isinstance(node, _Union):
            nullable, first, last = False, set(), set()
            for part in node.parts:
                n2, f2, l2 = walk(part)
                nullable, first, last = nullable or n2, first | f2, last | l2
            return nullable, first, last
        raise TypeError(f"unknown regex node {node!r}")

    nullable, first, last = walk(ast)
    if len(pairs) == 1:
        raise RegexError("a pair regex needs at least one atom")
    edges = [(0, q) for q in first] + [(p, q) for p, qs in follow.items() for q in qs]
    return StructuredNfa(StructuredAlphabet(frozenset(pairs[1:])), range(len(pairs)), {0},
                         last | ({0} if nullable else set()),
                         tuple((p, (pairs[q], ()), q) for (p, q) in sorted(edges)))


class RegexResync(RationalResync):
    """A pair regex compiled once to its position automaton, a track-free
    ``StructuredNfa`` whose base letters are the regex's pairs."""

    def __init__(self, ast, name="", input_alphabet=(), output_alphabet=()):
        super().__init__(input_alphabet, output_alphabet, name)
        self.nfa = _position_automaton(ast)

    def accepts_pairs(self, pairs) -> bool:
        base = self.nfa.alphabet.base
        # accepts raises on letters outside the alphabet; a pair no atom has rejects
        return all(p in base for p in pairs) and self.nfa.accepts([(p, ()) for p in pairs])


_PAIR_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_]+)\s*/\s*([A-Za-z0-9_]+)|([()*+]))")


def parse_pair_regex(text: str, name="", input_alphabet=(), output_alphabet=()) -> RegexResync:
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
    return RegexResync(node, name, input_alphabet, output_alphabet)


def make_rational_block(input_alphabet=("a", "b"), output_alphabet=("c", "d")) -> RegexResync:
    """The block-shift pair language over a/b inputs and c/d outputs:
    origins at the start of an a-block may move to the block's end."""
    a, b = sorted(input_alphabet)
    c, d = sorted(output_alphabet)
    e_bd = cat(atom(b, b), atom(d, d))
    e_block = cat(atom(a, a), alt(atom(c, c), cat(atom(c, a), star(atom(a, a)), atom(a, c))))
    ast = cat(star(e_bd), star(cat(e_block, plus(e_bd))), e_block, star(e_bd))
    return RegexResync(ast, "R_block", input_alphabet, output_alphabet)


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
        super().__init__(input_alphabet, output_alphabet, f"rational-shift({k})")
        self.k = k

    def accepts_pairs(self, pairs) -> bool:
        k, ins, outs = self.k, self.input_alphabet, self.output_alphabet
        uq, pending = (), ()
        for (x, y) in pairs:
            if y in outs:
                pending = pending + ((y, len(pending)),)
            if x in outs:
                if not pending:
                    return False
                (c, age), pending = pending[0], pending[1:]
                if c != x or not 0 <= age <= k:
                    return False
            if x in ins:
                uq = uq + (x,)
                pending = tuple((c, age + 1) for (c, age) in pending)
                if any(age > k for (_c, age) in pending):
                    return False
            if y in ins:
                if not uq or uq[0] != y:
                    return False
                uq = uq[1:]
            if len(uq) > k + 1:
                return False
        return not uq and not pending


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
