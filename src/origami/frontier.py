"""Frontiers: forward t1 x t2 products over the input tree, for one-way
t1 and t2, that merge every input prefix reaching the same macro-state.

``_Frontier`` decides plain containment up to a parameterless
resynchronizer under which t2 never writes ahead of t1 (``_t2_may_lead``
tells), layer by layer; ``_ProfileFrontier`` computes the traversal
profile.  Both hold a ``_Product``: everything that does not depend on the
resynchronizer, which is t2's ``MatchIndex``, t1's moves per key and
letter, t2's moves through item sets, t2's walks over each written prefix,
and the memo tables of all of these.  ``_product`` keeps one product
between calls, keyed by the identity of the last pair of transducer
objects asked about: the calls on one pair share it, equal transducers
built again start afresh, and no more than one pair's tables stay alive.
The state of a call, the gamma tables and the configurations it interns,
stays with the frontier it builds.  ``_Frontier`` reads gamma through one
table built up front, the successors of each gamma state on each letter
under the four (x, y) marks, and keeps one object per distinct pending
suffix, settled set, t2 configuration and set of them.  Unless
``_t1_fits_caps`` shows that no cap can bind, t1's runs are keyed with
their step count and output length, so that the caps cut the runs the
sweep cuts.  ``containment`` chooses between a frontier and the per-input
sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .automata import _closure, _scc
from .transducers import EPS, MatchIndex, transition_index, _eps_close, _read

_ZERO = (0, 0)
_MARKS = (_ZERO, (0, 1), (1, 0), (1, 1))     # (x, y), in the order of _Frontier.marks
_EMPTY = (None, frozenset())       # the macro-state with no run left to check
_last = None                       # the product of the last pair asked about (_product)


def _t1_fits_caps(t1, max_input_len, caps):
    """Do all run prefixes of t1 on inputs up to max_input_len stay within
    caps?  False also when t1 has an eps-cycle that writes.  Longest paths,
    per number of letters read, over the eps moves in topological order of
    their strongly connected components.  Inside a component C no move
    writes, and the sweep expands each configuration at its least step
    count, so a run spends at most |C| - 1 steps in C, and one more when a
    move inside C is tried at that count."""
    eps, cross = {}, {}
    for (p, a, out, q) in t1.transitions:
        if a is EPS:
            eps.setdefault(p, set()).add(q)
    comp = _scc(sorted(t1.states, key=repr), eps)
    members, inner = {}, set()
    for q in t1.states:
        members.setdefault(comp[q], []).append(q)
    for (p, a, out, q) in t1.transitions:
        if a is EPS:
            if comp[p] != comp[q]:
                cross.setdefault(p, []).append((len(out), q))
            elif out:
                return False
            else:
                inner.add(comp[p])
    # Tarjan numbers a component after every component it reaches
    order = sorted(members, reverse=True)
    # best: state -> (most steps, longest output) over the run prefixes
    best = {q: (0, 0) for q in t1.initial}
    for n in range(max_input_len + 1):
        if n:
            nxt = {}
            for (p, a, out, q) in t1.transitions:
                if a is not EPS and p in best:
                    s, o = best[p]
                    s0, o0 = nxt.get(q, (0, 0))
                    nxt[q] = (max(s0, s + 1), max(o0, o + len(out)))
            best = nxt
        for c in order:
            got = [best[q] for q in members[c] if q in best]
            if not got:
                continue
            s = max(s for (s, _o) in got) + len(members[c]) - 1
            o = max(o for (_s, o) in got)
            if c in inner and s + 1 > caps.max_steps:
                return False
            for p in members[c]:
                best[p] = (s, o)
                for (lo, q) in cross.get(p, ()):
                    s0, o0 = best.get(q, (0, 0))
                    best[q] = (max(s0, s + 1), max(o0, o + lo))
        if any(s > caps.max_steps or o > caps.max_output_len for (s, o) in best.values()):
            return False
    return True


def _product(t1, t2, max_input_len, caps):
    """The product of one-way t1 and t2 for a call with these bounds.

    The product of the last call is kept in one slot and returned again
    when it was built for the same t1 and t2 objects and the same counted
    caps (the caps when one can bind, else None), so the calls made on
    one pair, whatever their resynchronizers, share its tables.  Anything
    else replaces it: the old product is dropped before the new one is
    built, and only t2's ``MatchIndex`` and the answers of
    ``_t1_fits_caps`` carry over when the objects are the same.

    The slot is keyed by identity, not by value: equal transducers that a
    caller builds again start from an empty product, so the tables of
    one batch of calls never carry over into the next.  It holds one
    entry, in this module and not on the transducers: at most one pair's
    tables outlive a call, and the next call on another pair frees them
    before it builds its own.
    """
    global _last
    last = _last
    if last is None or last.t1 is not t1 or last.t2 is not t2:
        _last = last = None
    fits = {} if last is None else last.fits
    key = (max_input_len, caps)
    if key not in fits:
        fits[key] = _t1_fits_caps(t1, max_input_len, caps)
    counted = None if fits[key] else caps
    if last is not None and last.caps == counted:
        return last
    index = None if last is None else last.index
    _last = last = None
    _last = _Product(t1, t2, counted, index or MatchIndex(t2), fits)
    return _last


class _Product:
    """What the containment and the profile frontiers share, for one pair
    of one-way transducers: t1's moves per key and letter, and t2's moves
    followed letter by letter, with the memo tables of both.  Nothing here
    reads a resynchronizer, so every call on the pair may share it
    (``_product``); it keeps growing over the calls, by the keys they
    meet.

    A t1 key is t1's state or, when ``caps`` is not None, (state, steps,
    output length) at the run's least step count; ``caps`` is the caps
    when ``_t1_fits_caps`` could not show that no cap binds, and ``fits``
    keeps that function's answers per (max_input_len, caps).  t2's moves
    at one position (eps moves, then the read, then at the input's end
    eps moves again) are followed through item sets of (state, read yet,
    rest of a move's output), shared by every word written; an item that
    has not read and cannot read any more is dropped.  ``walks`` keeps,
    per t2 state, written prefix and letter, the live states that finish
    after each prefix of it (``t2_walk``), one object per distinct answer
    (``walked``).  t1's end words on a letter, sorted, are walked as a
    trie, so that each shared prefix is followed once.  A free state of t2
    is final, reads every letter silently in place and eps-writes every
    output letter.
    """

    def __init__(self, t1, t2, caps, index, fits):
        self.t1, self.t2, self.caps, self.index, self.fits = t1, t2, caps, index, fits
        self.letters = tuple(sorted(t1.input_alphabet))
        outputs = t1.output_alphabet      # t2's too
        self.outputs = tuple(sorted(outputs))
        self.by_key1 = transition_index(t1)
        pred1, pred2 = {}, {}
        for (p, _a, _out, q) in t1.transitions:
            pred1.setdefault(q, set()).add(p)
        # t2's moves by (state, letter or EPS, first letter written), and
        # those that write nothing
        self.first2, self.silent2 = {}, {}
        for (p, b, out), targets in index.exact.items():
            for q in targets:
                pred2.setdefault(q, set()).add(p)
                if out:
                    self.first2.setdefault((p, b, out[0]), []).append((out[1:], q))
                else:
                    self.silent2.setdefault((p, b), []).append(q)
        self.live1 = _closure(t1.final, pred1)
        self.live2 = _closure(index.final, pred2)
        self.readers = index.readers
        # accepting states that eps-write every output letter, and those
        # that also read every letter in place
        self.pad_all = frozenset(q for q, pad in index.pad.items() if pad == outputs)
        self.free_states = self.pad_all & index.sink
        self.final1 = t1.final
        self.closed1 = {}
        self.moves1 = {}
        self.fronts2 = {}
        self.finished2 = {}
        self.covers = {}
        self.walks, self.walked = {}, {}

    def t1_moves(self, k1, a):
        """From t1's key k1 on the letter a: the (k1', w) that eps moves and
        the read reach, writing w, and the sorted w of those that reach an
        accepting state with trailing eps moves too.  With counted keys
        each configuration is expanded at its least step count, as the
        sweep does, and the caps cut the runs the sweep cuts."""
        key = (k1, a)
        got = self.moves1.get(key)
        if got is None:
            caps, by_key = self.caps, self.by_key1
            if caps is None:
                q1, steps, olen, room = k1, 0, 0, (math.inf, math.inf)
            else:
                q1, steps, olen = k1
                room = (caps.max_output_len - olen, caps.max_steps)
            entries = self.closed1.get(k1)
            if entries is None:
                entries = self.closed1[k1] = {(q1, (), ()): steps}
                _eps_close(by_key, entries, 0, room)
            read = _read(by_key, entries, a, 0, room)[0]
            moves = tuple((r if caps is None else (r, s, olen + len(w)), w)
                          for (r, w, _org), s in read.items() if r in self.live1)
            _eps_close(by_key, read, 0, room)
            ends = tuple(sorted({w for (q, w, _org) in read if q in self.final1}))
            got = self.moves1[key] = (moves, ends)
        return got

    def t2_close(self, items, a, end):
        """items, t2's (state, read yet, rest of a move's output), with the
        moves that write nothing added."""
        found, stack = set(items), list(items)
        readers = self.readers
        while stack:
            q, read, rest = stack.pop()
            if rest or (read and not end):
                continue
            for b in ((EPS,) if read else (EPS, a)):
                for r in self.silent2.get((q, b), ()):
                    item = (r, read or b is not EPS, ())
                    if item not in found and (item[1] or r in readers):
                        found.add(item)
                        stack.append(item)
        return frozenset(found)

    def t2_step(self, front, c, a, end):
        """The items that front reaches by writing the letter c."""
        key = (front, c, a, end)
        got = self.fronts2.get(key)
        if got is None:
            items = set()
            readers = self.readers
            for (q, read, rest) in front:
                if rest:
                    if rest[0] == c:
                        items.add((q, read, rest[1:]))
                elif not read or end:
                    for b in ((EPS,) if read else (EPS, a)):
                        for (tail, r) in self.first2.get((q, b, c), ()):
                            if read or b is not EPS or r in readers:
                                items.add((r, read or b is not EPS, tail))
            got = self.fronts2[key] = self.t2_close(items, a, end)
        return got

    def t2_start(self, q2, a, end):
        """The items of t2's configuration q2 before it writes a letter."""
        key = (q2, a, end)
        got = self.fronts2.get(key)
        if got is None:
            got = self.fronts2[key] = self.t2_close({(q2, False, ())}, a, end)
        return got

    def finished(self, front):
        """The states of front's items that have read and written all."""
        got = self.finished2.get(front)
        if got is None:
            got = self.finished2[front] = tuple([q for (q, read, rest) in front if read and not rest])
        return got

    def t2_fronts(self, q2, target, a):
        """(k, items): t2's configuration q2 at one position, eps moves then
        the read of a, once it has written target[:k], for each k up to
        the first with no item."""
        front = self.t2_start(q2, a, False)
        yield 0, front
        for k, c in enumerate(target, 1):
            front = self.t2_step(front, c, a, False)
            if not front:
                return
            yield k, front

    def t2_walk(self, q2, target, a):
        """((k, states), ...): for each k, in order, at which t2's
        configuration q2 at one position, eps moves then the read of a,
        can finish in a live state once it has written target[:k], those
        states."""
        key = (q2, target, a)
        got = self.walks.get(key)
        if got is None:
            live2, found = self.live2, []
            for k, front in self.t2_fronts(q2, target, a):
                states = tuple([r for r in self.finished(front) if r in live2])
                if states:
                    found.append((k, states))
            got = tuple(found)
            # a handful of distinct walks serve thousands of keys
            got = self.walks[key] = self.walked.setdefault(got, got)
        return got

    def t2_writes(self, q2, target, a, more):
        """(r, k, e): t2's moves from q2 at one position, eps moves then the
        read of a, writing target[:k], or all of target and then e, at most
        more letters."""
        got = []
        for k, front in self.t2_fronts(q2, target, a):
            got.extend((q, k, ()) for q in self.finished(front))
        if k < len(target) or not more:
            return got
        stack = [(front, ())]
        while stack:
            front, e = stack.pop()
            for c in self.outputs:
                nxt = self.t2_step(front, c, a, False)
                if nxt:
                    got.extend((q, len(target), e + (c,)) for q in self.finished(nxt))
                    if len(e) + 1 < more:
                        stack.append((nxt, e + (c,)))
        return got

    def t2_covers(self, front, words, a):
        """Can t2 write each of words, sorted, from the items front to
        acceptance at the input's end, the last letter being a?"""
        key = (front, id(words), a)
        got = self.covers.get(key)
        if got is None:
            got = self.covers[key] = self._covers(front, words, 0, len(words), 0, a)
        return got

    def _covers(self, front, words, lo, hi, d, a):
        # words[lo:hi] share their first d letters: one node of the trie
        if not front:
            return False
        # a free state, or after the read a state that eps-writes every
        # letter, finishes every word
        free, pad_all = self.free_states, self.pad_all
        if any(not rest and (q in free or (read and q in pad_all)) for (q, read, rest) in front):
            return True
        if len(words[lo]) == d:
            final = self.index.final
            if not any(read and not rest and q in final for (q, read, rest) in front):
                return False
            lo += 1
        while lo < hi:
            prefix = words[lo][:d + 1]
            nxt = bisect_right(words, prefix, lo, hi, key=lambda w: w[:d + 1])
            if not self._covers(self.t2_step(front, prefix[d], a, True), words, lo, nxt, d + 1, a):
                return False
            lo = nxt
        return True

    def t2_after(self, q2, written, a):
        """The items of t2's configuration q2 at the input's end, the last
        letter being a, once it has written written; empty when it cannot."""
        front = self.t2_start(q2, a, True)
        for c in written:
            if not front:
                break
            front = self.t2_step(front, c, a, True)
        return front


class _Frontier:
    """Plain one-way containment over macro-states, for every input length.

    After a prefix u the frontier holds one macro-state (z, E): z is the
    gamma-DFA state of u with no marks, E an antichain of pairs (k1, S), one
    per t1 run prefix on u that could still be checked, k1 its key.  S is
    the set of t2 configurations (q2, pending, settled) that write a prefix
    of that run's output with every letter at or after t1's origin for it:
    ``pending`` holds t1's letters t2 has not written yet, each with the
    gamma state of its position (y marked), ``settled`` the gamma states of
    positions both have written.  One position p makes t1's moves with
    origin p (eps moves, then the read), then t2's, then every gamma state
    reads u_p with its marks.  A configuration dies when a gamma state can
    no longer reach acceptance; a settled state leaves once every
    continuation accepts.  For each k1 only the inclusion-minimal S are
    kept, since a run with fewer partners fails whenever one with more
    does.  When gamma is identity-safe (x = y accepts from every unmarked
    state, whatever follows), a pair whose S holds a free t2 state with
    nothing pending or settled can never fail, and leaves.

    Every prefix reaching a macro-state fails on the same continuations,
    so each layer keeps the macro-states first reached at its length, each
    with its least prefix; an input of length n + 1 fails when its last
    letter fails the end check of its prefix's macro-state.

    Gamma is read through ``marks[a][s]``, the successors of the gamma
    state s on the letter a under the marks (x, y) = 00, 01, 10, 11, built
    once from the DFA; ``pair[s][b]`` is the one pending entry (b, s).
    ``shared`` holds one object per distinct pending suffix, settled set,
    configuration and set of configurations that ``t2_next`` builds.
    These, and the caches ``next2`` and ``end2``, read gamma and stay with
    the frontier; t1's and t2's moves come from the ``product``, shared
    with the other calls on the pair.
    """

    def __init__(self, product, resync):
        self.product = product
        dfa, delta = resync.gamma_dfa()
        init = next(iter(dfa.initial))
        self.letters = product.letters
        self.g_final = dfa.final
        self.marks = {a: {s: tuple(delta[(s, (a, bits))] for bits in _MARKS) for s in dfa.states}
                      for a in self.letters}
        zsucc, zpred, xpred = {}, {}, {}
        for row in self.marks.values():
            for s, (t, _t01, tx, _t11) in row.items():
                zsucc.setdefault(s, set()).add(t)
                zpred.setdefault(t, set()).add(s)
                xpred.setdefault(tx, set()).add(s)
        # co0: can still accept with no mark to come; co1: with x to come;
        # safe: accepts whatever follows with no mark
        self.co0 = _closure(dfa.final, zpred)
        self.co1 = _closure({s for t in self.co0 for s in xpred.get(t, ())}, zpred)
        self.safe = dfa.states - _closure(dfa.states - dfa.final, zpred)
        identity_safe = all(row[s][3] in self.safe
                            for s in _closure({init}, zsucc) for row in self.marks.values())
        self.free = frozenset((q, (), frozenset()) for q in product.free_states
                              if identity_safe)
        self.pair = {s: {b: (b, s) for b in product.outputs} for s in dfa.states}
        self.next2 = {}
        self.end2 = {}
        self.shared = {}
        self.start = (init, frozenset(
            (q1 if product.caps is None else (q1, 0, 0),
             frozenset((q2, (), frozenset()) for q2 in product.index.initial
                       if q2 in product.live2))
            for q1 in product.t1.initial if q1 in product.live1))

    def t2_next(self, c, w, a, z):
        """The configurations t2's configuration c can reach at this position,
        where t1 writes w and the input letter is a, from t2's walk over
        what is pending (``_Product.t2_walk``).  The pending entries
        after this position are built once, as one tuple of ``pair``
        entries, and a successor that has written k of them keeps the
        slice from k on.  Suffixes, settled sets, configurations and the
        result are interned in ``shared``: the caches hold many equal
        ones."""
        key = (c, w, a, z)
        got = self.next2.get(key)
        if got is not None:
            return got
        q2, pending, settled = c
        marks, co0, co1 = self.marks[a], self.co0, self.co1
        # each entry's gamma state if t2 writes it here (x marked, row[2 + y])
        # and if not yet (row[y]); pending letters have y = 0, and t1's
        # letters here y = 1 and the gamma state z
        now, later = [], []
        for (_b, g) in pending:
            row = marks[g]
            now.append(row[2])
            later.append(row[0])
        if w:
            row = marks[z]
            now += [row[3]] * len(w)
            later += [row[1]] * len(w)
        written = tuple([b for (b, _g) in pending]) + w
        # t2 may write entries up to the first that could no longer accept,
        # and must write those after the last that could not wait
        most = next((i for i, s in enumerate(now) if s not in co0), len(now))
        least = next((i + 1 for i in range(len(later) - 1, -1, -1) if later[i] not in co1), 0)
        kept = [marks[g][0] for g in settled]
        if least > most or any(s not in co0 for s in kept):
            got = self.next2[key] = frozenset()
            return got
        safe, pair, shared = self.safe, self.pair, self.shared
        done = frozenset(s for s in kept if s not in safe)
        done, upto = shared.setdefault(done, done), 0
        entries = tuple([pair[s][b] for b, s in zip(written, later)])
        found = []
        for k, states in self.product.t2_walk(q2, written[:most], a):
            if k < least:
                continue
            # the suffix and the settled set depend on k alone: done grows
            # with k by the entries written here
            grown = [s for s in now[upto:k] if s not in safe and s not in done]
            if grown:
                done = done.union(grown)
                done = shared.setdefault(done, done)
            rest, upto = entries[k:], k
            tail = (shared.setdefault(rest, rest), done)
            for r in states:
                nc = (r,) + tail
                found.append(shared.setdefault(nc, nc))
        got = frozenset(found)
        got = self.next2[key] = shared.setdefault(got, got)
        return got

    def t2_ends(self, c, a):
        """The items with which t2's configuration c starts on t1's end
        words, the input's last letter being a; empty when a gamma state of
        c cannot accept."""
        key = (c, a)
        got = self.end2.get(key)
        if got is None:
            q2, pending, settled = c
            marks, final = self.marks[a], self.g_final
            got = frozenset()
            if (all(marks[g][2] in final for (_b, g) in pending)
                    and all(marks[g][0] in final for g in settled)):
                got = self.product.t2_after(q2, tuple(b for (b, _g) in pending), a)
            self.end2[key] = got
        return got

    def step(self, state, a):
        """The macro-state after one more letter a."""
        z, pairs = state
        minimal, t1_moves = {}, self.product.t1_moves
        for (q1, configs) in pairs:
            for (r1, w) in t1_moves(q1, a)[0]:
                nxt = frozenset().union(*(self.t2_next(c, w, a, z) for c in configs))
                if nxt.isdisjoint(self.free):
                    minimal.setdefault(r1, set()).add(nxt)
        out = _antichains(minimal)
        if not out:
            return _EMPTY
        return (self.marks[a][z][0], frozenset(out))

    def fails(self, state, a):
        """Does some t1 run ending with the letter a lack every partner?"""
        z, pairs = state
        if not pairs:
            return False
        # t1's letters here all have the gamma state z, y marked
        writes = self.marks[a][z][3] in self.g_final
        product = self.product
        for (q1, configs) in pairs:
            words = product.t1_moves(q1, a)[1]
            if not words:
                continue
            if not writes and words[-1]:
                return True
            front = frozenset().union(*(self.t2_ends(c, a) for c in configs))
            if not product.t2_covers(front, words, a):
                return True
        return False

    def run(self, max_input_len):
        """(least failing input or None, new macro-states per layer, the
        first layer that added none, or None)."""
        layer, seen, sizes = [((), self.start)], {self.start}, []
        for n in range(1, max_input_len + 1):
            for (prefix, state) in layer:
                for a in self.letters:
                    if self.fails(state, a):
                        return prefix + (a,), sizes, None
            nxt = []
            for (prefix, state) in layer:
                for a in self.letters:
                    got = self.step(state, a)
                    if got not in seen:
                        seen.add(got)
                        nxt.append((prefix + (a,), got))
            layer = nxt
            sizes.append(len(layer))
            if not layer:
                return None, sizes, n
        return None, sizes, None


def _antichains(minimal):
    """The pairs (k1, S), from a dict k1 -> set of S, with only the
    inclusion-minimal S of each k1."""
    out = []
    for r1, sets in minimal.items():
        kept = []
        for s in sorted(sets, key=len):
            if not any(k <= s for k in kept):
                kept.append(s)
        out.extend((r1, s) for s in kept)
    return out


def _output_room(t1, cap, max_input_len):
    """room[r][q]: the most letters t1 can still write from the state q,
    before the eps moves of a position, on runs that read 1 to r more
    letters and accept, counted up to cap; a state with no such run is
    missing."""
    eps, reads = {}, {}
    for (p, a, out, q) in t1.transitions:
        (eps if a is EPS else reads).setdefault(p, []).append((len(out), q))
    # longest eps paths, counted up to cap
    far = {}
    for q in t1.states:
        got, stack = {q: 0}, [q]
        while stack:
            p = stack.pop()
            for (lo, r) in eps.get(p, ()):
                v = min(cap, got[p] + lo)
                if got.get(r, -1) < v:
                    got[r] = v
                    stack.append(r)
        far[q] = got
    # ends[q]: most letters on the runs that read exactly r more letters
    ends = {q: max(v for p, v in got.items() if p in t1.final)
            for q, got in far.items() if not t1.final.isdisjoint(got)}
    room, best = [None], {}
    for _r in range(max_input_len):
        nxt = {}
        for q, got in far.items():
            for p, v in got.items():
                for (lo, r) in reads.get(p, ()):
                    if r in ends:
                        nxt[q] = max(nxt.get(q, -1), min(cap, v + lo + ends[r]))
        ends = nxt
        best = {q: max(best.get(q, -1), ends.get(q, -1)) for q in best.keys() | ends.keys()}
        room.append(best)
    return room


class _ProfileFrontier:
    """traversal_profile for one-way t1 and t2 over macro-states, for every
    input length.

    After a prefix u a macro-state is a set of pairs (k1, S), one per t1
    run prefix on u, k1 its key.  S holds t2's configurations (q2, owed,
    blocks, mx) on run prefixes that write a prefix of that run's output,
    or more: one side is ahead of the other by a suffix of the output.
    mx is the largest crossing count at a cut already closed.

    - Pending side (owed False, t1 ahead): ``blocks`` holds t1's letters t2
      has not written, grouped by t1's origin, each block (letters, count)
      with the number of distinct t2 heads that cross the cut just after
      its origin; an earlier cut of the same gap would count a superset of
      those heads.  A position where t2 writes a pending letter adds 1 to
      every block older than it; a block written out closes its cut.
    - Owed side (owed True, t2 ahead): ``blocks`` holds the letters t2
      wrote before t1, grouped by t2's head, which t1 must write in that
      order.  The left-to-right count at the cut after a position is the
      number of owed blocks left.  At most as many letters may be owed as
      t1 can still write (``_output_room``); a t1 run that cannot finish
      leaves.

    A free t2 state with nothing owed writes what is pending at the next
    head and everything later at t1's origin, so it collapses at once into
    (None, False, (), value), value = max(mx, count + 1 over its blocks);
    with letters owed it writes no more ahead.  A configuration leaves S
    when another of the same state and letters has no larger mx and
    counts, or when a collapsed value is at most its mx; a pair whose
    collapsed value is 0 adds nothing and leaves.  For each k1 only the
    inclusion-minimal S are kept, since a run with fewer partners has a
    larger least traversal on every continuation.

    profile(n) is the largest value, over every macro-state after n - 1
    letters, every last letter and every end word of t1, of the least value
    over S; math.inf when no configuration can finish.

    t1's and t2's moves come from the ``product``, shared with the other
    calls on the pair; ``room``, the caches ``next2`` and ``values`` stay
    with the frontier.
    """

    def __init__(self, product, caps, max_input_len):
        self.product = product
        self.letters = product.letters
        self.free_states = product.free_states
        self.cont2 = product.live2 & product.readers
        self.room = _output_room(product.t1, caps.max_output_len, max_input_len)
        self.next2, self.values = {}, {}
        start = self.settle({(None, False, (), 0) if q2 in self.free_states else (q2, False, (), 0)
                             for q2 in product.index.initial if q2 in self.cont2})
        self.start = frozenset(
            (q1 if product.caps is None else (q1, 0, 0), start)
            for q1 in product.t1.initial if q1 in product.live1 and start is not None)

    def settle(self, configs):
        """configs without the dominated ones, or None when a collapsed
        value of 0 makes the pair add nothing."""
        least = min((c[3] for c in configs if c[0] is None), default=math.inf)
        if least == 0:
            return None
        shapes = {}
        for c in configs:
            q2, owed, blocks, mx = c
            if q2 is not None and mx < least:
                if owed:
                    shapes.setdefault((q2, True, blocks), []).append(((mx,), c))
                else:
                    shapes.setdefault((q2, False, tuple(b for (b, _n) in blocks)), []).append(
                        ((mx,) + tuple(n for (_b, n) in blocks), c))
        kept = [] if least is math.inf else [(None, False, (), least)]
        for found in shapes.values():
            kept.extend(c for (vec, c) in found
                        if not any(v != vec and all(map(int.__le__, v, vec)) for (v, _c) in found))
        return frozenset(kept)

    def t2_next(self, c, w, a, room):
        """The configurations t2's configuration c can reach at this position,
        where t1 writes w and the input letter is a, owing at most room
        letters afterwards."""
        key = (c, w, a, room)
        got = self.next2.get(key)
        if got is None:
            got = self.next2[key] = tuple(self._next(c, w, a, room))
        return got

    def _next(self, c, w, a, room):
        q2, owed, blocks, mx = c
        if q2 is None:
            yield c
            return
        free = self.free_states
        old = ()
        if not owed:
            old = blocks
        elif blocks:
            # t1's letters pay what is owed, oldest block first
            left, i = list(blocks), 0
            while left and i < len(w):
                b = left[0]
                k = min(len(b), len(w) - i)
                if w[i:i + k] != b[:k]:
                    return
                i += k
                if k == len(b):
                    left.pop(0)
                else:
                    left[0] = b[k:]
            w = w[i:]
            if left:
                left = tuple(left)
                more = room - sum(map(len, left))
                if more < 0:
                    return
                moves = [(q2, 0, ())] if q2 in free else self.product.t2_writes(q2, (), a, more)
                for (r, _k, e) in moves:
                    if r in self.cont2:
                        nb = left + (e,) if e else left
                        yield (r, True, nb, max(mx, len(nb)))
                return
        target = tuple(x for (b, _n) in old for x in b) + w
        moves = ([(q2, len(target), ())] if q2 in free
                 else self.product.t2_writes(q2, target, a, room))
        for (r, k, e) in moves:
            if r not in self.cont2:
                continue
            # the head writes the oldest pending letter first, so it
            # crosses the cut after every older block
            nmx, nb, bump = mx, [], 1 if k and old else 0
            for (b, n) in old:
                n += bump
                if k >= len(b):
                    k -= len(b)
                    nmx = max(nmx, n)
                else:
                    nb.append((b[k:], n))
                    k = 0
            if k < len(w):
                nb.append((w[k:], 0))
            if e:
                yield (r, True, (e,), max(nmx, 1))
            elif r in free:
                yield (None, False, (), max([nmx] + [n + 1 for (_b, n) in nb]))
            else:
                yield (r, False, tuple(nb), nmx)

    def step(self, pairs, a, left):
        """The macro-state after one more letter a, with at most left
        letters to come."""
        room, minimal = self.room[left], {}
        caps, t1_moves = self.product.caps, self.product.t1_moves
        for (k1, configs) in pairs:
            for (r1, w) in t1_moves(k1, a)[0]:
                if caps is None:
                    most = room.get(r1, -1)
                else:
                    most = min(room.get(r1[0], -1), caps.max_output_len - r1[2])
                if most < 0:
                    continue
                nxt = self.settle(set().union(*(self.t2_next(c, w, a, most) for c in configs)))
                if nxt is not None:
                    minimal.setdefault(r1, set()).add(nxt)
        return frozenset(_antichains(minimal))

    def value(self, k1, configs, a):
        """The largest value over k1's end words on the last letter a of
        the least value over configs; math.inf when no configuration can
        finish some end word, 0 when there is none."""
        key = (k1, configs, a)
        got = self.values.get(key)
        if got is None:
            words = self.product.t1_moves(k1, a)[1]
            got = self.values[key] = self._value(configs, words, a) if words else 0
        return got

    def _value(self, configs, words, a):
        starts = []
        for (q2, owed, blocks, mx) in configs:
            if q2 is None:
                starts.append((mx, None))
            elif owed:
                # t1's end word starts with the owed letters
                starts.append((mx, frozenset({(q2, False, tuple(x for b in blocks for x in b))})))
            else:
                front = self.product.t2_after(q2, tuple(x for (b, _n) in blocks for x in b), a)
                if front:
                    starts.append((max([mx] + [n + 1 for (_b, n) in blocks]), front))
        # the least v at which the configurations of value at most v
        # finish every end word
        starts.sort(key=lambda s: s[0])
        front = frozenset()
        for i, (v, items) in enumerate(starts):
            if items is None:
                return v
            front |= items
            if ((i + 1 == len(starts) or starts[i + 1][0] > v)
                    and self.product.t2_covers(front, words, a)):
                return v
        return math.inf

    def run(self, max_input_len):
        """(profile(n) for n = 1..max_input_len, the macro-states after
        n - 1 letters for each n)."""
        values, sizes = {}, []
        layer = {self.start} - {frozenset()}
        for n in range(1, max_input_len + 1):
            sizes.append(len(layer))
            values[n] = max((self.value(k1, configs, a) for pairs in layer
                             for a in self.letters for (k1, configs) in pairs), default=0)
            if n < max_input_len:
                layer = {self.step(pairs, a, max_input_len - n)
                         for pairs in layer for a in self.letters} - {frozenset()}
        return values, sizes


def _t2_may_lead(dfa, delta, letters):
    """Does gamma accept a word with x strictly before y, each marked once?"""
    # phase 0: no mark yet; 1: x marked; 2: y marked after x
    moves = {0: ((_ZERO, 0), ((1, 0), 1)), 1: ((_ZERO, 1), ((0, 1), 2)), 2: ((_ZERO, 2),)}
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
