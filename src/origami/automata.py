"""NFAs over structured alphabets: a base letter plus named boolean tracks.

Every decision procedure in this package bottoms out here, so the module
keeps to plain tuples and frozensets.  An extended letter is a pair
``(base, bits)`` where ``bits`` follows the track declaration order.

Transitions are stored as a tuple and may contain the same triple twice.
Parallel edges are deliberate: run counting and ambiguity classification
treat them as distinct edges, which is needed to express automata of
exponential ambiguity with a single state.

The language operations (union, product, subset construction,
complement, Moore minimization, adding and projecting tracks) run on
``GuardedNfa``, which keeps each state's transitions as one decision
diagram over the base letter and the track bits, in the manner of MONA.
A letter region that acts alike is one path, however many letters it
holds; the triples are written out only when a ``StructuredNfa`` is
returned.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType


class AlphabetMismatchError(ValueError):
    pass


class UnknownTrackError(ValueError):
    pass


@dataclass(frozen=True)
class StructuredAlphabet:
    """Base letters crossed with boolean tracks.

    ``letters()`` enumerates base x B^len(tracks) in a canonical order
    (base letters sorted, bit vectors in binary counting order).
    """

    base: frozenset
    tracks: tuple = ()

    def __post_init__(self):
        if not self.base:
            raise ValueError("base alphabet must be non-empty")
        if len(set(self.tracks)) != len(self.tracks):
            raise ValueError("track names must be unique")
        object.__setattr__(self, "base", frozenset(self.base))
        object.__setattr__(self, "tracks", tuple(self.tracks))

    def letters(self):
        for a in sorted(self.base):
            for bits in itertools.product((0, 1), repeat=len(self.tracks)):
                yield (a, bits)

    @cached_property
    def _letter_set(self):
        return frozenset(self.letters())

    def contains_letter(self, letter) -> bool:
        try:
            if letter in self._letter_set:
                return True
        except TypeError:
            pass  # unhashable, e.g. list bits: the full check below decides
        a, bits = letter
        return a in self.base and len(bits) == len(self.tracks) and all(b in (0, 1) for b in bits)

    def track_index(self, name) -> int:
        try:
            return self.tracks.index(name)
        except ValueError:
            raise UnknownTrackError(f"no track named {name!r}") from None

    def with_tracks(self, tracks) -> "StructuredAlphabet":
        return StructuredAlphabet(self.base, tuple(tracks))


def letter_key(letter):
    """Canonical order on extended letters, used for witness tie-breaking."""
    return (letter[0], letter[1])


@dataclass(frozen=True)
class StructuredNfa:
    alphabet: StructuredAlphabet
    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: tuple = ()   # (p, (base, bits), q), parallel edges allowed

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial/final must be subsets of states")
        for (p, letter, q) in self.transitions:
            if p not in self.states or q not in self.states:
                raise ValueError(f"transition endpoint outside states: {(p, letter, q)}")
            if not self.alphabet.contains_letter(letter):
                raise AlphabetMismatchError(f"letter {letter!r} not in alphabet")

    @classmethod
    def _unchecked(cls, alphabet, states, initial, final, transitions):
        """An automaton from frozensets and a tuple already known to be
        valid, such as a diagram's expansion; skips ``__post_init__``."""
        n = object.__new__(cls)
        for field, value in (("alphabet", alphabet), ("states", states), ("initial", initial),
                             ("final", final), ("transitions", transitions)):
            object.__setattr__(n, field, value)
        return n

    # -- basic structure ---------------------------------------------------

    def delta(self):
        """Read-only map (state, letter) -> tuple of distinct targets;
        collapses parallel edges.  Built once per automaton."""
        return MappingProxyType(self._delta)

    @cached_property
    def _delta(self):
        # a plain dict, so an automaton that has built it still pickles;
        # tuples, because the map lives as long as the automaton; a set
        # only for a key with several targets, filled in transition order
        d = {}
        many = {}
        for (p, a, q) in self.transitions:
            key = (p, a)
            t = d.get(key)
            if t is None:
                d[key] = (q,)
            else:
                many.setdefault(key, set(t)).add(q)
        for key, v in many.items():
            d[key] = tuple(v)
        return d

    def trim(self) -> "StructuredNfa":
        """Restrict to accessible and co-accessible states."""
        fwd = {}
        bwd = {}
        for (p, a, q) in self.transitions:
            fwd.setdefault(p, set()).add(q)
            bwd.setdefault(q, set()).add(p)
        reach = _closure(self.initial, fwd)
        co = _closure(self.final, bwd)
        useful = reach & co
        return StructuredNfa(
            self.alphabet,
            useful,
            self.initial & useful,
            self.final & useful,
            tuple(t for t in self.transitions if t[0] in useful and t[2] in useful),
        )

    # -- language operations ----------------------------------------------

    def accepts(self, word) -> bool:
        """Run the subset construction lazily: each (state set, letter)
        step is computed once per automaton and then read from a table.
        A letter is checked against the alphabet when its step is first
        computed, so a letter outside it raises ``AlphabetMismatchError``."""
        cur = self.initial
        steps = self._steps
        for letter in word:
            try:
                nxt = steps.get((cur, letter))
            except TypeError:     # unhashable letter: the check below decides
                nxt = None
            if nxt is None:
                nxt = self._subset_step(cur, letter)
            if not nxt:
                return False
            cur = nxt
        return not cur.isdisjoint(self.final)

    @cached_property
    def _steps(self):
        # (frozenset of states, letter) -> frozenset of states
        return {}

    @cached_property
    def _subsets(self):
        # every state set in _steps, so that equal sets are stored once
        return {}

    def _subset_step(self, cur, letter):
        if not self.alphabet.contains_letter(letter):
            raise AlphabetMismatchError(f"letter {letter!r} not in alphabet")
        d = self._delta
        nxt = frozenset().union(*(d.get((p, letter), ()) for p in cur))
        nxt = self._subsets.setdefault(nxt, nxt)
        self._steps[(cur, letter)] = nxt
        return nxt

    def count_accepting_runs(self, word) -> int:
        """Number of accepting runs; parallel transitions count separately."""
        wt = {}
        for (p, a, q) in self.transitions:
            wt[(p, a, q)] = wt.get((p, a, q), 0) + 1
        cur = {p: 1 for p in self.initial}
        for letter in word:
            nxt = {}
            for ((p, a, q), m) in wt.items():
                if a == letter and p in cur:
                    nxt[q] = nxt.get(q, 0) + m * cur[p]
            cur = nxt
        return sum(n for q, n in cur.items() if q in self.final)

    def is_empty(self) -> bool:
        return not self.trim().states

    def determinize(self) -> "StructuredNfa":
        """Subset construction; the result is a complete DFA over the alphabet.

        States of the result are frozensets of original states, plus the
        empty frozenset as the sink.
        """
        return GuardedNfa.from_nfa(self).determinize().to_nfa()

    def is_deterministic_complete(self) -> bool:
        """One initial state, and one target (parallel copies allowed) for
        every state and letter."""
        return GuardedNfa.from_nfa(self).is_dfa()

    def complement(self) -> "StructuredNfa":
        return GuardedNfa.from_nfa(self).complement().to_nfa()

    def minimize(self) -> "StructuredNfa":
        """Moore partition refinement on the determinized automaton.

        Blocks are numbered breadth-first from the initial block, letters in
        ``alphabet.letters()`` order, so the result does not depend on how
        the original states hash.  Safe only for language-level uses;
        run-counting callers must not minimize (state merging changes the
        number of runs).
        """
        return GuardedNfa.from_nfa(self).minimize().to_nfa()

    def extend_tracks(self, tracks) -> "StructuredNfa":
        """Move to a superset of the tracks; the added bits are unconstrained.

        The inverse of ``project_track``: the language is the old one with
        the new tracks read and ignored.
        """
        if tuple(tracks) == self.alphabet.tracks:
            return self
        return GuardedNfa.from_nfa(self).extend_tracks(tracks).to_nfa()

    def project_track(self, track) -> "StructuredNfa":
        """Drop one track; the bit is forgotten, so the result is an NFA.
        A transition that both bit values take is kept twice."""
        return GuardedNfa.from_nfa(self).project_track(track).to_nfa()

    def find_witness(self):
        """Shortest accepted word, ties broken lexicographically on letters.

        Returns None for the empty language.  BFS over determinized state
        sets with letters explored in canonical order.
        """
        letters = sorted(self.alphabet.letters(), key=letter_key)
        d = self.delta()
        start = frozenset(self.initial)
        if start & self.final:
            return ()
        seen = {start}
        queue = deque([(start, ())])
        while queue:
            s, word = queue.popleft()
            for a in letters:
                tgt = frozenset().union(*(d.get((p, a), ()) for p in s)) if s else frozenset()
                if not tgt or tgt in seen:
                    continue
                w2 = word + (a,)
                if tgt & self.final:
                    return w2
                seen.add(tgt)
                queue.append((tgt, w2))
        return None


def _closure(seed, edges):
    out = set(seed)
    queue = deque(seed)
    while queue:
        p = queue.popleft()
        for q in edges.get(p, ()):
            if q not in out:
                out.add(q)
                queue.append(q)
    return out


def _check_same_alphabet(n1, n2):
    if n1.alphabet != n2.alphabet:
        raise AlphabetMismatchError(
            f"operands have different alphabets: {n1.alphabet} vs {n2.alphabet}")


# -- decision-diagram transition functions -----------------------------------

_LEAF = 1 << 30   # the level of leaves, below every track


class Diagrams:
    """A unique table of multi-terminal decision diagrams over one base
    alphabet, the form in which every automaton operation runs.

    A node is a number.  Level 0 branches on the base letter, one child
    per letter in sorted order; level i + 1 branches on track i, children
    for bit 0 and bit 1.  A leaf holds the sorted tuple of target state
    numbers, a target repeated once per parallel edge.  No node has all
    its children equal, so equal functions are the same node.  A table
    serves one compile or one public operation and is dropped with it.
    """

    def __init__(self, base):
        self.base = tuple(sorted(base))
        self.level = []      # node -> level (_LEAF for leaves)
        self.kids = []       # node -> children, or a leaf's targets
        self.unique = {}
        self._targets = {}
        self._single = {}
        self.empty = self.leaf(())

    def _make(self, level, kids):
        key = (level, kids)
        n = self.unique.get(key)
        if n is None:
            n = self.unique[key] = len(self.level)
            self.level.append(level)
            self.kids.append(kids)
        return n

    def leaf(self, targets):
        return self._make(_LEAF, targets)

    def node(self, level, kids):
        first = kids[0]
        for k in kids:
            if k != first:
                return self._make(level, kids)
        return first

    def width(self, level):
        return len(self.base) if level == 0 else 2

    def apply(self, u, v, leaf_op, memo):
        """The diagram pairing u and v letter by letter, leaves by leaf_op."""
        key = (u, v)
        r = memo.get(key)
        if r is None:
            lu, lv = self.level[u], self.level[v]
            if lu == lv == _LEAF:
                r = self.leaf(leaf_op(self.kids[u], self.kids[v]))
            else:
                lvl = min(lu, lv)
                w = self.width(lvl)
                ku = self.kids[u] if lu == lvl else (u,) * w
                kv = self.kids[v] if lv == lvl else (v,) * w
                r = self.node(lvl, tuple(self.apply(a, b, leaf_op, memo) for a, b in zip(ku, kv)))
            memo[key] = r
        return r

    def map_leaves(self, u, fn, memo):
        r = memo.get(u)
        if r is None:
            if self.level[u] == _LEAF:
                r = self.leaf(fn(self.kids[u]))
            else:
                r = self.node(self.level[u], tuple(self.map_leaves(k, fn, memo) for k in self.kids[u]))
            memo[u] = r
        return r

    def targets(self, u):
        """Every target below u, as a frozenset."""
        t = self._targets.get(u)
        if t is None:
            if self.level[u] == _LEAF:
                t = frozenset(self.kids[u])
            else:
                t = frozenset().union(*(self.targets(k) for k in self.kids[u]))
            self._targets[u] = t
        return t

    def single(self, u):
        """Does every letter lead to exactly one target below u?"""
        s = self._single.get(u)
        if s is None:
            if self.level[u] == _LEAF:
                t = self.kids[u]
                s = bool(t) and t.count(t[0]) == len(t)
            else:
                s = all(self.single(k) for k in self.kids[u])
            self._single[u] = s
        return s

    def leaf_order(self, u):
        """The leaves below u, each once, in the order of their least
        letter (a path's don't-cares filled with 0, the least base letter
        where the base level is skipped).  Depth-first, children in order,
        visits paths in exactly that order."""
        out = []
        seen = set()

        def walk(n):
            if n in seen:
                return
            seen.add(n)
            if self.level[n] == _LEAF:
                out.append(n)
            else:
                for k in self.kids[n]:
                    walk(k)

        walk(u)
        return out

    def from_letters(self, entries, ntracks):
        """The diagram of {(base, bits): [targets]}; other letters lead nowhere."""
        by_base = {}
        for (a, bits), targets in entries.items():
            by_base.setdefault(a, []).append((tuple(bits), targets))
        kids = []
        for a in self.base:
            rows = sorted(by_base.get(a, ()), key=lambda r: r[0])
            kids.append(self._from_sorted(rows, 0, len(rows), 0, ntracks))
        return self.node(0, tuple(kids))

    def _from_sorted(self, rows, lo, hi, i, ntracks):
        # rows[lo:hi] share their first i bits and are sorted on the rest
        if lo == hi:
            return self.empty
        if i == ntracks:
            return self.leaf(tuple(sorted(rows[lo][1])))
        mid = bisect.bisect_left(rows, 1, lo, hi, key=lambda r: r[0][i])
        return self.node(i + 1, (self._from_sorted(rows, lo, mid, i + 1, ntracks),
                                 self._from_sorted(rows, mid, hi, i + 1, ntracks)))

    def letter_table(self, u, ntracks, memo):
        """[(base index, bits index, targets)] for every letter with a
        target, letters in ``StructuredAlphabet.letters()`` order."""
        kids = self.kids[u] if self.level[u] == 0 else (u,) * len(self.base)
        return [(ai, idx, t) for ai, k in enumerate(kids)
                for idx, t in self._bit_table(k, 1, ntracks, memo)]

    def _bit_table(self, u, lvl, ntracks, memo):
        key = (u, lvl)
        r = memo.get(key)
        if r is None:
            if lvl > ntracks:
                t = self.kids[u]
                r = [(0, t)] if t else []
            else:
                lo, hi = self.kids[u] if self.level[u] == lvl else (u, u)
                half = 1 << (ntracks - lvl)
                r = self._bit_table(lo, lvl + 1, ntracks, memo) + \
                    [(half + i, t) for i, t in self._bit_table(hi, lvl + 1, ntracks, memo)]
            memo[key] = r
        return r


class GuardedNfa:
    """An NFA whose transitions are one decision diagram per state.

    States are numbered 0 .. n-1 in ``rows``, ``initial`` and ``final``;
    ``names[i]`` is state i's identity in the explicit automaton, and every
    operation names its states as the explicit construction does: (0, p)
    and (1, p) for a union, (p1, p2) for a product, frozensets for subsets,
    block numbers for a minimized DFA.  ``from_nfa`` and ``to_nfa`` convert
    from and to ``StructuredNfa``.
    """

    def __init__(self, dd, alphabet, names, initial, final, rows):
        self.dd = dd
        self.alphabet = alphabet
        self.names = names
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.rows = rows

    # -- conversions ------------------------------------------------------

    @classmethod
    def from_nfa(cls, nfa, dd=None):
        dd = dd or Diagrams(nfa.alphabet.base)
        names = sorted(nfa.states, key=repr)
        ids = {s: i for i, s in enumerate(names)}
        by_state = [{} for _ in names]
        for (p, letter, q) in nfa.transitions:
            by_state[ids[p]].setdefault(letter, []).append(ids[q])
        ntracks = len(nfa.alphabet.tracks)
        rows = [dd.from_letters(entries, ntracks) for entries in by_state]
        return cls(dd, nfa.alphabet, names, (ids[s] for s in nfa.initial),
                   (ids[s] for s in nfa.final), rows)

    @classmethod
    def from_move(cls, dd, alphabet, states, initial, final, move, reads=(), reads_letter=False):
        """A complete DFA from move(state, base letter, {track: bit}) -> state.

        The diagrams branch on the ``reads`` tracks alone, and on the base
        letter only when ``reads_letter``; move sees None for the letter
        otherwise.
        """
        names = sorted(states, key=repr)
        ids = {s: i for i, s in enumerate(names)}
        reads = sorted(set(reads), key=alphabet.track_index)
        levels = [alphabet.track_index(t) + 1 for t in reads]

        def build(s, a, bits):
            i = len(bits)
            if i == len(levels):
                return dd.leaf((ids[move(s, a, dict(zip(reads, bits)))],))
            return dd.node(levels[i], (build(s, a, bits + (0,)), build(s, a, bits + (1,))))

        rows = [dd.node(0, tuple(build(s, a, ()) for a in dd.base)) if reads_letter
                else build(s, None, ()) for s in names]
        return cls(dd, alphabet, names, [ids[initial]], (ids[s] for s in final), rows)

    def to_nfa(self) -> StructuredNfa:
        """The explicit automaton: states in ``repr`` order, each state's
        letters in ``letters()`` order."""
        names = self.names
        ntracks = len(self.alphabet.tracks)
        bits = list(itertools.product((0, 1), repeat=ntracks))
        letters = [[(a, b) for b in bits] for a in self.dd.base]
        memo = {}
        trans = []
        add = trans.append
        for i in sorted(range(len(names)), key=lambda i: repr(names[i])):
            p = names[i]
            for ai, idx, targets in self.dd.letter_table(self.rows[i], ntracks, memo):
                letter = letters[ai][idx]
                for q in targets:
                    add((p, letter, names[q]))
        return StructuredNfa._unchecked(self.alphabet, frozenset(names),
                                        frozenset(names[i] for i in self.initial),
                                        frozenset(names[i] for i in self.final), tuple(trans))

    # -- structure ----------------------------------------------------------

    def _relabel(self, names, initial, final, rows, alphabet=None):
        return GuardedNfa(self.dd, alphabet or self.alphabet, names, initial, final, rows)

    def is_dfa(self) -> bool:
        return len(self.initial) == 1 and all(self.dd.single(r) for r in self.rows)

    def trim(self) -> "GuardedNfa":
        """Restrict to accessible and co-accessible states."""
        succ = {p: self.dd.targets(r) for p, r in enumerate(self.rows)}
        back = {}
        for p, ts in succ.items():
            for q in ts:
                back.setdefault(q, set()).add(p)
        useful = _closure(self.initial, succ) & _closure(self.final, back)
        if len(useful) == len(self.names):
            return self
        keep = sorted(useful)
        new = {p: i for i, p in enumerate(keep)}
        memo = {}

        def fn(t):
            return tuple(new[q] for q in t if q in new)

        return self._relabel([self.names[p] for p in keep],
                             (new[p] for p in self.initial if p in new),
                             (new[p] for p in self.final if p in new),
                             [self.dd.map_leaves(self.rows[p], fn, memo) for p in keep])

    # -- language operations --------------------------------------------------

    def union(self, other: "GuardedNfa") -> "GuardedNfa":
        n = len(self.names)
        memo = {}

        def fn(t):
            return tuple(q + n for q in t)

        return self._relabel(
            [(0, s) for s in self.names] + [(1, s) for s in other.names],
            self.initial | {q + n for q in other.initial},
            self.final | {q + n for q in other.final},
            self.rows + [self.dd.map_leaves(r, fn, memo) for r in other.rows])

    def intersect(self, other: "GuardedNfa") -> "GuardedNfa":
        """``product(other)``, trimmed."""
        return self.product(other).trim()

    def product(self, other: "GuardedNfa") -> "GuardedNfa":
        """Product on the pairs reachable from the initial pairs, untrimmed;
        parallel edges collapse.  Meant to be minimized next, which makes
        a trim beforehand wasted work; ``intersect`` is the trimmed one."""
        pairs = [(p, q) for p in sorted(self.initial) for q in sorted(other.initial)]
        ids = {pq: i for i, pq in enumerate(pairs)}
        initial = range(len(pairs))
        memo = {}

        def pair_leaf(t1, t2):
            out = set()
            for pq in itertools.product(set(t1), set(t2)):
                i = ids.get(pq)
                if i is None:
                    i = ids[pq] = len(pairs)
                    pairs.append(pq)
                out.add(i)
            return tuple(sorted(out))

        rows = []
        while len(rows) < len(pairs):
            p, q = pairs[len(rows)]
            rows.append(self.dd.apply(self.rows[p], other.rows[q], pair_leaf, memo))
        return self._relabel(
            [(self.names[p], other.names[q]) for p, q in pairs], initial,
            (i for i, (p, q) in enumerate(pairs) if p in self.final and q in other.final),
            rows)

    def determinize(self) -> "GuardedNfa":
        """Subset construction, breadth-first from the initial set, letters
        in canonical order; complete, with the empty set as the sink."""
        dd = self.dd
        level, kids, empty = dd.level, dd.kids, dd.empty
        subsets = [frozenset(self.initial)]
        ids = {subsets[0]: 0}
        memo = {}

        def step(nodes):   # nodes: sorted tuple of the member rows' nodes
            r = memo.get(nodes)
            if r is None:
                lvl = min((level[n] for n in nodes), default=_LEAF)
                if lvl == _LEAF:
                    s = frozenset(itertools.chain.from_iterable(kids[n] for n in nodes))
                    i = ids.get(s)
                    if i is None:
                        i = ids[s] = len(subsets)
                        subsets.append(s)
                    r = dd.leaf((i,))
                else:
                    w = dd.width(lvl)
                    cols = zip(*(kids[n] if level[n] == lvl else (n,) * w for n in nodes))
                    r = dd.node(lvl, tuple(step(tuple(sorted(set(c) - {empty}))) for c in cols))
                memo[nodes] = r
            return r

        rows = []
        while len(rows) < len(subsets):
            rows.append(step(tuple(sorted({self.rows[p] for p in subsets[len(rows)]} - {empty}))))
        return self._relabel([frozenset(self.names[p] for p in s) for s in subsets], (0,),
                             (i for i, s in enumerate(subsets) if not s.isdisjoint(self.final)),
                             rows)

    def complement(self) -> "GuardedNfa":
        d = self if self.is_dfa() else self.determinize()
        return d._relabel(d.names, d.initial, frozenset(range(len(d.names))) - d.final, d.rows)

    def minimize(self) -> "GuardedNfa":
        """Moore partition refinement on the determinized automaton; blocks
        numbered breadth-first from the initial block, letters in canonical
        order, then blocks unreachable from it by their least state ``repr``."""
        d = self if self.is_dfa() else self.determinize()
        dd = d.dd
        block = [int(p in d.final) for p in range(len(d.names))]
        count = len(set(block))
        while True:
            memo = {}

            def fn(t, block=block):
                return (block[t[0]],)

            sig = [(block[p], dd.map_leaves(r, fn, memo)) for p, r in enumerate(d.rows)]
            classes = {}
            block = [classes.setdefault(g, len(classes)) for g in sig]
            if len(classes) == count:
                break
            count = len(classes)
        rep = {}
        for p, b in enumerate(block):
            rep.setdefault(b, p)
        order = {}

        def bfs(root):
            order[root] = len(order)
            queue = deque([root])
            while queue:
                for leaf in dd.leaf_order(d.rows[rep[queue.popleft()]]):
                    nb = block[dd.kids[leaf][0]]
                    if nb not in order:
                        order[nb] = len(order)
                        queue.append(nb)

        init = next(iter(d.initial))
        bfs(block[init])
        if len(order) < len(rep):
            least = {}
            for p, b in enumerate(block):
                if b not in order:
                    least[b] = min(least.get(b, repr(d.names[p])), repr(d.names[p]))
            for b in sorted(least, key=least.get):
                if b not in order:
                    bfs(b)
        num = [order[b] for b in block]
        memo = {}

        def renum(t):
            return (num[t[0]],)

        rows = [None] * len(order)
        for b, p in rep.items():
            rows[order[b]] = dd.map_leaves(d.rows[p], renum, memo)
        return d._relabel(list(range(len(order))), (num[init],), (num[p] for p in d.final), rows)

    def extend_tracks(self, tracks) -> "GuardedNfa":
        """Move to a superset of the tracks, in any order; the added bits
        are unconstrained."""
        tracks = tuple(tracks)
        old = self.alphabet.tracks
        missing = set(old) - set(tracks)
        if missing:
            raise UnknownTrackError(f"extension drops tracks {sorted(missing)}")
        if tracks == old:
            return self
        dd = self.dd
        level, kids = dd.level, dd.kids
        pos = {t: i + 1 for i, t in enumerate(old)}
        source = [None] + [pos.get(t) for t in tracks]   # new level -> old level
        cof_memo, memo = {}, {}

        def cofactor(u, lvl, b):
            if level[u] > lvl:
                return u
            if level[u] == lvl:
                return kids[u][b]
            key = (u, lvl, b)
            r = cof_memo.get(key)
            if r is None:
                r = cof_memo[key] = dd.node(level[u], tuple(cofactor(k, lvl, b) for k in kids[u]))
            return r

        def rebuild(u, j):   # u's old tracks all sit at new levels >= j
            if j == len(source):
                return u
            key = (u, j)
            r = memo.get(key)
            if r is None:
                s = source[j]
                if s is None:
                    r = rebuild(u, j + 1)
                else:
                    r = dd.node(j, (rebuild(cofactor(u, s, 0), j + 1),
                                    rebuild(cofactor(u, s, 1), j + 1)))
                memo[key] = r
            return r

        rows = [dd.node(0, tuple(rebuild(k, 1) for k in kids[r])) if level[r] == 0
                else rebuild(r, 1) for r in self.rows]
        return self._relabel(self.names, self.initial, self.final, rows,
                             self.alphabet.with_tracks(tracks))

    def project_track(self, track) -> "GuardedNfa":
        """Drop one track: each letter's targets are those of both bit
        values, a target reached by both counted twice."""
        lvl = self.alphabet.track_index(track) + 1
        dd = self.dd
        level, kids = dd.level, dd.kids
        shift_memo, sum_memo, memo = {}, {}, {}

        def shift(u):   # below the projected level: every level moves up one
            if level[u] == _LEAF:
                return u
            r = shift_memo.get(u)
            if r is None:
                r = shift_memo[u] = dd.node(level[u] - 1, tuple(shift(k) for k in kids[u]))
            return r

        def add(t1, t2):
            return tuple(sorted(t1 + t2))

        def proj(u):
            r = memo.get(u)
            if r is None:
                lu = level[u]
                if lu < lvl:
                    r = dd.node(lu, tuple(proj(k) for k in kids[u]))
                else:
                    lo, hi = kids[u] if lu == lvl else (u, u)
                    r = dd.apply(shift(lo), shift(hi), add, sum_memo)
                memo[u] = r
            return r

        tracks = self.alphabet.tracks
        return self._relabel(self.names, self.initial, self.final, [proj(r) for r in self.rows],
                             self.alphabet.with_tracks(tracks[:lvl - 1] + tracks[lvl:]))


def intersect(n1: StructuredNfa, n2: StructuredNfa) -> StructuredNfa:
    """Product automaton on pairs (p1, p2), trimmed."""
    _check_same_alphabet(n1, n2)
    dd = Diagrams(n1.alphabet.base)
    return GuardedNfa.from_nfa(n1, dd).intersect(GuardedNfa.from_nfa(n2, dd)).to_nfa()


def union(n1: StructuredNfa, n2: StructuredNfa) -> StructuredNfa:
    """Disjoint union on states (0, p1) and (1, p2)."""
    _check_same_alphabet(n1, n2)
    dd = Diagrams(n1.alphabet.base)
    return GuardedNfa.from_nfa(n1, dd).union(GuardedNfa.from_nfa(n2, dd)).to_nfa()


def language_equal_upto(n1: StructuredNfa, n2: StructuredNfa, max_len: int) -> bool:
    """Exhaustive comparison on all words up to max_len."""
    _check_same_alphabet(n1, n2)
    letters = tuple(n1.alphabet.letters())
    for n in range(max_len + 1):
        for word in itertools.product(letters, repeat=n):
            if n1.accepts(word) != n2.accepts(word):
                return False
    return True


# -- ambiguity classification ---------------------------------------------

FINITE = "finite"
POLY = "infinite-polynomial"
EXP = "infinite-exponential"


@dataclass(frozen=True)
class AmbiguityReport:
    kind: str                      # finite | infinite-polynomial | infinite-exponential
    states: tuple = ()             # (q,) for EDA, (p, q) for IDA
    pump: tuple = ()               # word witnessing the pattern


def _letter_classes(nfa):
    """Group letters acting identically on every state; keeps products small."""
    sig = {}
    d = {}
    for (p, a, q) in nfa.transitions:
        d.setdefault(a, []).append((p, q))
    for a in {t[1] for t in nfa.transitions}:
        sig.setdefault(tuple(sorted(d[a], key=repr)), a)
    return list(sig.values())


def ambiguity_report(nfa: StructuredNfa) -> AmbiguityReport:
    """Classify the growth of the number of accepting runs.

    The automaton is trimmed first.  EDA (two distinct same-word cycles at
    one useful state) gives exponential growth; IDA (p != q with p->p,
    p->q, q->q on one word) without EDA gives polynomial growth; otherwise
    the run count is bounded.  Parallel edges count as distinct, so a
    doubled self-loop is EDA.
    """
    n = nfa.trim()
    if not n.states:
        return AmbiguityReport(FINITE)
    letters = _letter_classes(n)
    # indexed transitions so parallel edges are distinguishable
    by_letter = {}
    for i, (p, a, q) in enumerate(n.transitions):
        by_letter.setdefault(a, []).append((p, q, i))

    # EDA: SCCs of the pair product; look for an SCC holding a diagonal
    # vertex and an edge built from two different transition indexes.
    pair_edges = {}
    diverged = []
    for a in letters:
        for (p1, q1, i1) in by_letter.get(a, ()):
            for (p2, q2, i2) in by_letter.get(a, ()):
                u, v = (p1, p2), (q1, q2)
                pair_edges.setdefault(u, set()).add(v)
                if i1 != i2:
                    diverged.append((u, a, v))
    comp = _scc({(p, q) for p in n.states for q in n.states}, pair_edges)
    for (u, a, v) in diverged:
        if comp[u] == comp[v]:
            for q in n.states:
                if comp.get((q, q)) == comp[u]:
                    pump = _pair_cycle_word((q, q), u, a, v, by_letter, letters)
                    return AmbiguityReport(EXP, (q,), pump)

    # IDA: reachability from (p,p,q) to (p,q,q) in the triple product.
    step = {}
    for a in letters:
        for (p, q, _i) in by_letter.get(a, ()):
            step.setdefault((p, a), set()).add(q)
    for p in n.states:
        for q in n.states:
            if p == q:
                continue
            word = _triple_reach((p, p, q), (p, q, q), step, letters)
            if word is not None:
                return AmbiguityReport(POLY, (p, q), word)
    return AmbiguityReport(FINITE)


def ambiguity_class(nfa: StructuredNfa) -> str:
    return ambiguity_report(nfa).kind


def _scc(vertices, edges):
    """Tarjan, iterative; returns vertex -> component id."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comp = {}
    counter = itertools.count()
    cid = itertools.count()
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()), key=repr)))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ()), key=repr))))
                    advanced = True
                    break
                elif w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                c = next(cid)
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp[w] = c
                    if w == v:
                        break
    return comp


def _pair_cycle_word(diag, u, a, v, by_letter, letters):
    """Word of a cycle diag ->* u -a-> v ->* diag in the pair product."""
    def bfs(src, dst):
        if src == dst:
            return ()
        seen = {src: None}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for b in letters:
                for (p1, q1, _i1) in by_letter.get(b, ()):
                    if p1 != x[0]:
                        continue
                    for (p2, q2, _i2) in by_letter.get(b, ()):
                        if p2 != x[1]:
                            continue
                        y = (q1, q2)
                        if y not in seen:
                            seen[y] = (x, b)
                            if y == dst:
                                return _unwind(seen, dst)
                            queue.append(y)
        return None

    w1 = bfs(diag, u)
    w2 = bfs(v, diag)
    if w1 is None or w2 is None:
        return ()
    return tuple(w1) + (a,) + tuple(w2)


def _unwind(seen, dst):
    out = []
    cur = dst
    while seen[cur] is not None:
        prev, b = seen[cur]
        out.append(b)
        cur = prev
    return tuple(reversed(out))


def _triple_reach(src, dst, step, letters):
    seen = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for a in letters:
            t1 = step.get((x[0], a))
            if not t1:
                continue
            t2 = step.get((x[1], a))
            if not t2:
                continue
            t3 = step.get((x[2], a))
            if not t3:
                continue
            for y1 in t1:
                for y2 in t2:
                    for y3 in t3:
                        y = (y1, y2, y3)
                        if y not in seen:
                            seen[y] = (x, a)
                            if y == dst:
                                return _unwind(seen, dst)
                            queue.append(y)
    return None
