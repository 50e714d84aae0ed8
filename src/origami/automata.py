"""NFAs over structured alphabets: a base letter plus named boolean tracks.

Every decision procedure in this package bottoms out here, so the module
keeps to plain tuples and frozensets.  An extended letter is a pair
``(base, bits)`` where ``bits`` follows the track declaration order.

Transitions are stored as a tuple and may contain the same triple twice.
Parallel edges are deliberate: run counting and ambiguity classification
treat them as distinct edges, which is needed to express automata of
exponential ambiguity with a single state.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
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

    # -- basic structure ---------------------------------------------------

    def delta(self):
        """Read-only map (state, letter) -> tuple of distinct targets;
        collapses parallel edges.  Built once per automaton."""
        return MappingProxyType(self._delta)

    @cached_property
    def _delta(self):
        # a plain dict, so an automaton that has built it still pickles;
        # tuples, because the map lives as long as the automaton
        d = {}
        for (p, a, q) in self.transitions:
            d.setdefault((p, a), set()).add(q)
        return {k: tuple(v) for k, v in d.items()}

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
        cur = set(self.initial)
        d = self._delta
        for letter in word:
            if not self.alphabet.contains_letter(letter):
                raise AlphabetMismatchError(f"letter {letter!r} not in alphabet")
            cur = set().union(*(d.get((p, letter), ()) for p in cur)) if cur else set()
            if not cur:
                return False
        return bool(cur & self.final)

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
        letters = tuple(self.alphabet.letters())
        d = self.delta()
        start = frozenset(self.initial)
        states = {start}
        trans = []
        queue = deque([start])
        while queue:
            s = queue.popleft()
            for a in letters:
                tgt = frozenset().union(*(d.get((p, a), ()) for p in s)) if s else frozenset()
                trans.append((s, a, tgt))
                if tgt not in states:
                    states.add(tgt)
                    queue.append(tgt)
        final = frozenset(s for s in states if s & self.final)
        return StructuredNfa(self.alphabet, states, frozenset([start]), final, tuple(trans))

    def is_deterministic_complete(self) -> bool:
        if len(self.initial) != 1:
            return False
        seen = {}
        for (p, a, q) in self.transitions:
            if (p, a) in seen and seen[(p, a)] != q:
                return False
            seen[(p, a)] = q
        # every transition letter is validated in __post_init__, so a state
        # is complete when its count of distinct letters is the alphabet's
        n_letters = len(self.alphabet.base) * (2 ** len(self.alphabet.tracks))
        per_state = Counter(p for (p, _a) in seen)
        return all(per_state[p] == n_letters for p in self.states)

    def complement(self) -> "StructuredNfa":
        d = self if self.is_deterministic_complete() else self.determinize()
        return StructuredNfa(d.alphabet, d.states, d.initial, d.states - d.final, d.transitions)

    def minimize(self) -> "StructuredNfa":
        """Moore partition refinement on the determinized automaton.

        Blocks are numbered breadth-first from the initial block, letters in
        ``alphabet.letters()`` order, so the result does not depend on how
        the original states hash.  Safe only for language-level uses;
        run-counting callers must not minimize (state merging changes the
        number of runs).
        """
        d = self if self.is_deterministic_complete() else self.determinize()
        letters = tuple(d.alphabet.letters())
        dd = {(p, a): q for (p, a, q) in d.transitions}
        block = {s: (s in d.final) for s in d.states}
        while True:
            sig = {s: (block[s],) + tuple(block[dd[(s, a)]] for a in letters) for s in d.states}
            classes = {}
            for s, g in sig.items():
                classes.setdefault(g, len(classes))
            newblock = {s: classes[sig[s]] for s in d.states}
            if len(set(newblock.values())) == len(set(block.values())):
                block = newblock
                break
            block = newblock
        block = _number_blocks(block, next(iter(d.initial)), dd, letters)
        init = block[next(iter(d.initial))]
        states = frozenset(block.values())
        final = frozenset(block[s] for s in d.final)
        trans = {(block[p], a, block[q]) for (p, a, q) in d.transitions}
        return StructuredNfa(d.alphabet, states, frozenset([init]), final, tuple(sorted(trans, key=lambda t: (repr(t[0]), letter_key(t[1]), repr(t[2])))))

    def extend_tracks(self, tracks) -> "StructuredNfa":
        """Move to a superset of the tracks; the added bits are unconstrained.

        The inverse of ``project_track``: every transition is copied once
        per valuation of the added tracks, so the language is the old one
        with the new tracks read and ignored.
        """
        tracks = tuple(tracks)
        old = self.alphabet.tracks
        missing = set(old) - set(tracks)
        if missing:
            raise UnknownTrackError(f"extension drops tracks {sorted(missing)}")
        if tracks == old:
            return self
        pos = {t: i for i, t in enumerate(old)}
        added = [j for j, t in enumerate(tracks) if t not in pos]
        fills = list(itertools.product((0, 1), repeat=len(added)))
        trans = []
        for (p, (a, bits), q) in self.transitions:
            row = [bits[pos[t]] if t in pos else 0 for t in tracks]
            for fill in fills:
                for j, b in zip(added, fill):
                    row[j] = b
                trans.append((p, (a, tuple(row)), q))
        return StructuredNfa(self.alphabet.with_tracks(tracks), self.states, self.initial,
                             self.final, tuple(trans))

    def project_track(self, track) -> "StructuredNfa":
        """Drop one track; the bit is forgotten, so the result is an NFA."""
        idx = self.alphabet.track_index(track)
        new_alpha = self.alphabet.with_tracks(
            tuple(t for i, t in enumerate(self.alphabet.tracks) if i != idx))
        trans = []
        for (p, (a, bits), q) in self.transitions:
            nb = bits[:idx] + bits[idx + 1:]
            trans.append((p, (a, nb), q))
        return StructuredNfa(new_alpha, self.states, self.initial, self.final, tuple(trans))

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


def _number_blocks(block, init, dd, letters):
    """Renumber Moore blocks breadth-first from init's block.

    Blocks unreachable from it (possible when the input was already a
    complete DFA) follow, ordered by the smallest ``repr`` of their states.
    """
    rep = {}
    for s, b in block.items():
        rep.setdefault(b, s)
    order = {}

    def bfs(root):
        order[root] = len(order)
        queue = deque([root])
        while queue:
            b = queue.popleft()
            for a in letters:
                nb = block[dd[(rep[b], a)]]
                if nb not in order:
                    order[nb] = len(order)
                    queue.append(nb)

    bfs(block[init])
    if len(order) < len(rep):
        least = {}
        for s, b in block.items():
            if b not in order:
                least[b] = min(least.get(b, repr(s)), repr(s))
        for b in sorted(least, key=least.get):
            if b not in order:
                bfs(b)
    return {s: order[b] for s, b in block.items()}


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


def intersect(n1: StructuredNfa, n2: StructuredNfa) -> StructuredNfa:
    _check_same_alphabet(n1, n2)
    by_letter1 = {}
    for (p, a, q) in set(n1.transitions):
        by_letter1.setdefault(a, []).append((p, q))
    trans = []
    states = set()
    for (p2, a, q2) in set(n2.transitions):
        for (p1, q1) in by_letter1.get(a, ()):
            trans.append(((p1, p2), a, (q1, q2)))
            states.add((p1, p2))
            states.add((q1, q2))
    init = {(p, q) for p in n1.initial for q in n2.initial}
    final = {(p, q) for p in n1.final for q in n2.final}
    states |= init | final
    return StructuredNfa(n1.alphabet, states, init, final, tuple(trans)).trim()


def union(n1: StructuredNfa, n2: StructuredNfa) -> StructuredNfa:
    _check_same_alphabet(n1, n2)
    s1 = {p: (0, p) for p in n1.states}
    s2 = {p: (1, p) for p in n2.states}
    trans = tuple((s1[p], a, s1[q]) for (p, a, q) in n1.transitions) + \
            tuple((s2[p], a, s2[q]) for (p, a, q) in n2.transitions)
    return StructuredNfa(
        n1.alphabet,
        set(s1.values()) | set(s2.values()),
        {s1[p] for p in n1.initial} | {s2[p] for p in n2.initial},
        {s1[p] for p in n1.final} | {s2[p] for p in n2.final},
        trans,
    )


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
