"""Letter-by-letter reference versions of the automaton operations.

These are the explicit-letter algorithms ``origami.automata`` ran before
its transition functions became decision diagrams: every operation walks
``alphabet.letters()`` or the transition tuple.  The tests compare the
diagram operations with them, automaton for automaton.
"""

import itertools
from collections import Counter, deque

from origami.automata import StructuredNfa, UnknownTrackError, letter_key


def same_automaton(got, want):
    """Equal alphabets, states, initial and final states, and transition
    multisets."""
    return (got.alphabet == want.alphabet and got.states == want.states
            and got.initial == want.initial and got.final == want.final
            and Counter(got.transitions) == Counter(want.transitions))


def determinize(n):
    letters = tuple(n.alphabet.letters())
    d = n.delta()
    start = frozenset(n.initial)
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
    final = frozenset(s for s in states if s & n.final)
    return StructuredNfa(n.alphabet, states, frozenset([start]), final, tuple(trans))


def complement(n):
    d = n if n.is_deterministic_complete() else determinize(n)
    return StructuredNfa(d.alphabet, d.states, d.initial, d.states - d.final, d.transitions)


def minimize(n):
    """Moore refinement; blocks numbered breadth-first from the initial
    block, letters in ``letters()`` order, unreachable blocks after them
    by their least state ``repr``."""
    d = n if n.is_deterministic_complete() else determinize(n)
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
    return StructuredNfa(d.alphabet, states, frozenset([init]), final,
                         tuple(sorted(trans, key=lambda t: (repr(t[0]), letter_key(t[1]),
                                                            repr(t[2])))))


def _number_blocks(block, init, dd, letters):
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


def extend_tracks(n, tracks):
    tracks = tuple(tracks)
    old = n.alphabet.tracks
    missing = set(old) - set(tracks)
    if missing:
        raise UnknownTrackError(f"extension drops tracks {sorted(missing)}")
    pos = {t: i for i, t in enumerate(old)}
    added = [j for j, t in enumerate(tracks) if t not in pos]
    fills = list(itertools.product((0, 1), repeat=len(added)))
    trans = []
    for (p, (a, bits), q) in n.transitions:
        row = [bits[pos[t]] if t in pos else 0 for t in tracks]
        for fill in fills:
            for j, b in zip(added, fill):
                row[j] = b
            trans.append((p, (a, tuple(row)), q))
    return StructuredNfa(n.alphabet.with_tracks(tracks), n.states, n.initial, n.final,
                         tuple(trans))


def project_track(n, track):
    idx = n.alphabet.track_index(track)
    alpha = n.alphabet.with_tracks(tuple(t for i, t in enumerate(n.alphabet.tracks) if i != idx))
    trans = tuple((p, (a, bits[:idx] + bits[idx + 1:]), q) for (p, (a, bits), q) in n.transitions)
    return StructuredNfa(alpha, n.states, n.initial, n.final, trans)


def intersect(n1, n2):
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


def product(n1, n2):
    """The pairs reachable from the initial pairs, co-accessible or not;
    parallel edges collapse."""
    d1, d2 = n1.delta(), n2.delta()
    init = {(p, q) for p in n1.initial for q in n2.initial}
    states, trans = set(init), set()
    queue = deque(init)
    while queue:
        p, q = queue.popleft()
        for a in n1.alphabet.letters():
            for t in itertools.product(d1.get((p, a), ()), d2.get((q, a), ())):
                trans.add(((p, q), a, t))
                if t not in states:
                    states.add(t)
                    queue.append(t)
    final = {(p, q) for (p, q) in states if p in n1.final and q in n2.final}
    return StructuredNfa(n1.alphabet, states, init, final, tuple(trans))


def union(n1, n2):
    s1 = {p: (0, p) for p in n1.states}
    s2 = {p: (1, p) for p in n2.states}
    trans = tuple((s1[p], a, s1[q]) for (p, a, q) in n1.transitions) + \
        tuple((s2[p], a, s2[q]) for (p, a, q) in n2.transitions)
    return StructuredNfa(n1.alphabet, set(s1.values()) | set(s2.values()),
                         {s1[p] for p in n1.initial} | {s2[p] for p in n2.initial},
                         {s1[p] for p in n1.final} | {s2[p] for p in n2.final}, trans)
