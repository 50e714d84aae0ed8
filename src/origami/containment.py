"""Bounded-length containment up to a resynchronizer, the R_k search, and
traversal-growth profiling.

Convention: contains_upto(t1, t2, R, ...) checks that every origin graph
sigma' of t1 (within the sweep bounds) is a resynchronization of some
graph sigma of t2, i.e. (sigma, sigma') is in [[R]] with sigma the source.
This is a desk-scale verifier over finite sweeps, not a decision
procedure; the underlying relation is undecidable in general.

Partner search: every partner query on a one-way t2 is one search of its
run lattice (``MatchIndex.search``).  Parameterless resynchronizers check a
table of gamma answers, one per input, during the search, without
enumerating graphs; the traversal profile checks a crossing budget; other
resynchronizers test each distinct partner the search finds.  A two-way
t2 runs once per input and output length, under the output cap |v|, and
its graphs are grouped by output in ``sort_key`` order (``_partners_2nt``):
the partner test, the no-partner reason and the traversal profile all
read those groups.

Frontier route: a plain call (one-way t1 and t2, parameterless
``Resynchronizer``, no membership callback, no recording) whose gamma
never puts t2's origin before t1's does not enumerate inputs.
``_Frontier`` runs one forward t1 x t2 product over the input tree,
merging the prefixes that reach the same macro-state, finds the least
failing input layer by layer, and the per-input path turns that one input
into the counterexample.  Unless no cap can bind (``_t1_fits_caps``), each
t1 run carries its step count and output length, so that the caps cut the
runs the sweep cuts; ``pruned`` then comes from t1's sweep alone.  When no
cap can bind, a layer with no new macro-state proves the verdict for every
input length (``Verdict.saturated_at``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from .automata import _closure
from .resync import (Resynchronizer, ExtendedResynchronizer, ResyncWitness, ResyncError,
                     pair_in_resync, extended_pair_in_resync, check_witness, make_Rk)
from .transducers import (EPS, OneWayTransducer, OriginGraph, RunCaps, MatchIndex,
                          TransducerAlphabetError, run_origin_graphs, sweep_origin_graphs,
                          transition_index, _eps_close, _read)
from .traversal import max_traversal, greedy_label, GreedyLabelError


@dataclass(frozen=True)
class Counterexample:
    sigma_p: OriginGraph
    reason: str           # "no-partner" | "no-accepted-partner"

    def to_json(self):
        return {"input": "".join(self.sigma_p.input) if all(len(c) == 1 for c in self.sigma_p.input) else list(self.sigma_p.input),
                "output": list(self.sigma_p.output),
                "orig": list(self.sigma_p.orig),
                "reason": self.reason}


@dataclass(frozen=True)
class Verdict:
    status: str                      # "holds-on-sweep" | "fails"
    counterexample: Counterexample | None
    max_input_len: int
    caps: RunCaps
    pruned: bool
    pairs: tuple = ()                # (sigma, sigma_p, witness) when recording
    saturated_at: int | None = None  # holds for every input length; not in to_json

    @property
    def holds(self):
        return self.status == "holds-on-sweep"

    def to_json(self):
        out = {"status": self.status, "max_input_len": self.max_input_len,
               "caps": {"max_output_len": self.caps.max_output_len,
                        "max_steps": self.caps.max_steps},
               "pruned": self.pruned}
        if self.counterexample:
            out["counterexample"] = self.counterexample.to_json()
        return out


def _gamma_table(resync, u):
    """(cache, fill) of ``MatchIndex.search``'s table of gamma answers on
    the input u, keyed (h, (output letter, y)): a parameterless
    ``Resynchronizer`` reads no output letter, an extended one without
    parameters has one gamma per output letter.  It lasts one input."""
    cache = {}

    def fill(h, key):
        c, y = key
        gamma = resync if isinstance(resync, Resynchronizer) else resync._gamma_resync((c,))
        got = cache[(h, key)] = gamma.gamma_holds_dfa(u, (), h, y)
        return got

    return cache, fill


def _partners_2nt(t2, max_steps):
    """partners(u, v): the graphs of two-way t2 on u with output v, in
    ``sort_key`` order.

    t2 runs once per output length |v| of the current input, under
    RunCaps(max(|v|, 1), max_steps).  The run keys its seen set on the
    output written, so the graphs with output v are the same under every
    output cap of at least |v|; a larger cap would only explore more.
    """
    word, groups = None, {}      # groups: |v| -> output -> graphs on word

    def partners(u, v):
        nonlocal word, groups
        if u != word:
            word, groups = u, {}
        by_output = groups.get(len(v))
        if by_output is None:
            by_output = groups[len(v)] = {}
            res = run_origin_graphs(t2, u, RunCaps(max(len(v), 1), max_steps))
            for g in sorted(res.graphs, key=lambda g: g.sort_key()):
                by_output.setdefault(g.output, []).append(g)
        return by_output.get(v, ())

    return partners


def _first_accepted(index, partners, sigma_p, check, allowed=None):
    """The first (partner, witness) that check accepts among t2's graphs
    with sigma_p's words, each distinct partner tested once, or None.  A
    one-way t2 is searched on its index, a two-way t2's partners listed."""
    u, v = sigma_p.input, sigma_p.output
    matched, seen = [], set()

    def each(org):
        if org in seen:
            return False
        seen.add(org)
        cand = OriginGraph(u, v, org)
        w = check(cand, sigma_p)
        if w is not None:
            matched.append((cand, w))
        return w is not None

    if index is not None:
        index.search(u, v, allowed, each=each)
    else:
        for g in partners(u, v):
            if each(g.orig):
                break
    return matched[0] if matched else None


def _default_membership(resync):
    if isinstance(resync, ExtendedResynchronizer):
        return lambda s, sp: extended_pair_in_resync(resync, s, sp)
    return lambda s, sp: pair_in_resync(resync, s, sp)


def _ext_precheck_m0(resync, sigma_p):
    """Extended with no parameters: alpha/beta/delta depend only on sigma'."""
    u, v = sigma_p.input, sigma_p.output
    if not resync._alpha_holds(u, ()):
        return False
    if not resync._beta_holds(v, ()):
        return False
    tys = [(c,) for c in v]
    for t in range(len(v) - 1):
        if not resync._delta_holds(u, (), tys[t], tys[t + 1],
                                   sigma_p.orig[t], sigma_p.orig[t + 1]):
            return False
    return True


# -- frontier route: one forward t1 x t2 product over the input tree ---------

_ZERO = (0, 0)
_EMPTY = (None, frozenset())       # the macro-state with no run left to check


def _t1_fits_caps(t1, max_input_len, caps):
    """Do all run prefixes of t1 on inputs up to max_input_len stay within
    caps?  False also when t1 has an eps-cycle.  Longest paths, per number
    of letters read, over the eps moves in topological order."""
    succ, indeg = {}, {q: 0 for q in t1.states}
    for (p, a, out, q) in t1.transitions:
        if a is EPS:
            succ.setdefault(p, []).append((len(out), q))
            indeg[q] += 1
    order = [q for q in t1.states if not indeg[q]]
    for p in order:
        for (_lo, q) in succ.get(p, ()):
            indeg[q] -= 1
            if not indeg[q]:
                order.append(q)
    if len(order) < len(t1.states):
        return False
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
        for p in order:
            if p in best:
                s, o = best[p]
                for (lo, q) in succ.get(p, ()):
                    s0, o0 = best.get(q, (0, 0))
                    best[q] = (max(s0, s + 1), max(o0, o + lo))
        if any(s > caps.max_steps or o > caps.max_output_len for (s, o) in best.values()):
            return False
    return True


class _Frontier:
    """Plain one-way containment over macro-states, for every input length.

    After a prefix u the frontier holds one macro-state (z, E): z is the
    gamma-DFA state of u with no marks, E an antichain of pairs (k1, S), one
    per t1 run prefix on u that could still be checked.  k1 is t1's state,
    or, when caps may bind, (state, steps, output length) at the run's
    least step count.  S is the set of t2 configurations (q2, pending,
    settled) that write a prefix of that run's output with every letter at
    or after t1's origin for it: ``pending`` holds t1's letters t2 has not
    written yet, each with the gamma state of its position (y marked),
    ``settled`` the gamma states of positions both have written.  One
    position p makes t1's moves with origin p (eps moves, then the read),
    then t2's, followed letter by letter through item sets shared by every
    word written, then every gamma state reads u_p with its marks.  A
    configuration dies when a gamma state can no longer reach acceptance;
    a settled state leaves once every continuation accepts.  For each k1
    only the inclusion-minimal S are kept, since a run with fewer partners
    fails whenever one with more does.  When gamma is identity-safe (x = y
    accepts from every unmarked state, whatever follows), a pair whose S
    holds a free t2 state (final, reading every letter silently and
    eps-writing every output letter) with nothing pending or settled can
    never fail, and leaves.

    Every prefix reaching a macro-state fails on the same continuations,
    so each layer keeps the macro-states first reached at its length, each
    with its least prefix; an input of length n + 1 fails when its last
    letter fails the end check of its prefix's macro-state.
    """

    def __init__(self, t1, index, resync, letters, outputs, caps):
        self.letters = letters
        self.caps = caps
        self.by_key1 = transition_index(t1)
        self.index = index
        dfa, self.delta = resync.gamma_dfa()
        delta = self.delta
        init = next(iter(dfa.initial))
        self.g_final = dfa.final
        zsucc, zpred, xpred = {}, {}, {}
        for s in dfa.states:
            for a in letters:
                t = delta[(s, (a, _ZERO))]
                zsucc.setdefault(s, set()).add(t)
                zpred.setdefault(t, set()).add(s)
                xpred.setdefault(delta[(s, (a, (1, 0)))], set()).add(s)
        # co0: can still accept with no mark to come; co1: with x to come;
        # safe: accepts whatever follows with no mark
        self.co0 = _closure(dfa.final, zpred)
        self.co1 = _closure({s for t in self.co0 for s in xpred.get(t, ())}, zpred)
        self.safe = dfa.states - _closure(dfa.states - dfa.final, zpred)
        identity_safe = all(delta[(s, (a, (1, 1)))] in self.safe
                            for s in _closure({init}, zsucc) for a in letters)
        # free: a sink state of the index that pads with every output letter
        self.free = frozenset((q, (), frozenset()) for q in index.sink
                              if index.pad[q] == outputs and identity_safe)
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
        self.final1 = t1.final
        self.closed1 = {}
        self.moves1 = {}
        self.fronts2 = {}
        self.next2 = {}
        self.end2 = {}
        self.shared = {}
        self.start = (init, frozenset(
            (q1 if caps is None else (q1, 0, 0),
             frozenset((q2, (), frozenset()) for q2 in index.initial if q2 in self.live2))
            for q1 in t1.initial if q1 in self.live1))

    def t1_moves(self, k1, a):
        """From t1's key k1 on the letter a: the (k1', w) that eps moves and
        the read reach, writing w, and the w of those that reach an
        accepting state with trailing eps moves too.  A key is a state, or
        (state, steps, output length) when caps may bind; then each
        configuration is expanded at its least step count, as the sweep
        does, and the caps cut the runs the sweep cuts."""
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
            ends = {w for (q, w, _org) in read if q in self.final1}
            got = self.moves1[key] = (moves, ends)
        return got

    def t2_close(self, items, a, end):
        """items, t2's (state, read yet, rest of a move's output), with the
        moves that write nothing added."""
        found, stack = set(items), list(items)
        while stack:
            q, read, rest = stack.pop()
            if rest or (read and not end):
                continue
            for b in ((EPS,) if read else (EPS, a)):
                for r in self.silent2.get((q, b), ()):
                    item = (r, read or b is not EPS, ())
                    if item not in found:
                        found.add(item)
                        stack.append(item)
        return frozenset(found)

    def t2_step(self, front, c, a, end):
        """The items that front reaches by writing the letter c."""
        key = (front, c, a, end)
        got = self.fronts2.get(key)
        if got is None:
            items = set()
            for (q, read, rest) in front:
                if rest:
                    if rest[0] == c:
                        items.add((q, read, rest[1:]))
                elif not read or end:
                    for b in ((EPS,) if read else (EPS, a)):
                        for (tail, r) in self.first2.get((q, b, c), ()):
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

    def t2_moves(self, q2, written, a):
        """(q2', k): t2's moves with one origin, eps moves then the read of
        a, writing written[:k].  The moves are followed letter by letter,
        through item sets shared by every word written."""
        front = self.t2_start(q2, a, False)
        out = []
        for k in range(len(written) + 1):
            if k:
                front = self.t2_step(front, written[k - 1], a, False)
                if not front:
                    break
            out.extend((q, k) for (q, read, rest) in front if read and not rest)
        return out

    def t2_next(self, c, w, a, z):
        """The configurations t2's configuration c can reach at this position,
        where t1 writes w and the input letter is a."""
        key = (c, w, a, z)
        got = self.next2.get(key)
        if got is not None:
            return got
        q2, pending, settled = c
        delta, co0, co1, safe = self.delta, self.co0, self.co1, self.safe
        entries = pending + tuple((b, z) for b in w)
        written = tuple(b for (b, _g) in entries)
        # each entry's gamma state if t2 writes it here, and if not yet
        ys = [0] * len(pending) + [1] * len(w)
        now = [delta[(g, (a, (1, y)))] for (_b, g), y in zip(entries, ys)]
        later = [delta[(g, (a, (0, y)))] for (_b, g), y in zip(entries, ys)]
        # t2 may write entries up to the first that could no longer accept,
        # and must write those after the last that could not wait
        most = next((i for i, s in enumerate(now) if s not in co0), len(now))
        least = next((i + 1 for i in range(len(later) - 1, -1, -1) if later[i] not in co1), 0)
        kept = [delta[(g, (a, _ZERO))] for g in settled]
        if least > most or any(s not in co0 for s in kept):
            got = self.next2[key] = frozenset()
            return got
        kept = frozenset(s for s in kept if s not in safe)
        found = set()
        # one object per distinct value: the caches hold many equal ones
        shared = self.shared

        def share(x):
            return shared.setdefault(x, x)

        for (r, k) in self.t2_moves(q2, written[:most], a):
            if k >= least and r in self.live2:
                rest = share(tuple(share(e) for e in zip(written[k:], later[k:])))
                found.add(share((r, rest, share(kept.union(s for s in now[:k] if s not in safe)))))
        got = self.next2[key] = share(frozenset(found))
        return got

    def t2_accepts(self, q2, written, a):
        """Can t2 go from q2 to acceptance on the last letter a, writing
        written, eps moves after the read included?"""
        front = self.t2_start(q2, a, True)
        for c in written:
            front = self.t2_step(front, c, a, True)
        final = self.index.final
        return any(read and not rest and q in final for (q, read, rest) in front)

    def t2_ends(self, c, w, a, z):
        """Can t2's configuration c finish the input with the letter a, t1
        writing w, and every gamma state accepting?"""
        key = (c, w, a, z)
        got = self.end2.get(key)
        if got is None:
            q2, pending, settled = c
            delta, final = self.delta, self.g_final
            written = tuple(b for (b, _g) in pending) + w
            # t1's letters here all have the gamma state z, y marked
            got = (all(delta[(g, (a, (1, 0)))] in final for (_b, g) in pending)
                   and (not w or delta[(z, (a, (1, 1)))] in final)
                   and all(delta[(g, (a, _ZERO))] in final for g in settled)
                   and self.t2_accepts(q2, written, a))
            self.end2[key] = got
        return got

    def step(self, state, a):
        """The macro-state after one more letter a."""
        z, pairs = state
        minimal = {}
        for (q1, configs) in pairs:
            for (r1, w) in self.t1_moves(q1, a)[0]:
                nxt = frozenset().union(*(self.t2_next(c, w, a, z) for c in configs))
                if nxt.isdisjoint(self.free):
                    minimal.setdefault(r1, set()).add(nxt)
        out = []
        for r1, sets in minimal.items():
            kept = []
            for s in sorted(sets, key=len):
                if not any(k <= s for k in kept):
                    kept.append(s)
            out.extend((r1, s) for s in kept)
        if not out:
            return _EMPTY
        return (self.delta[(z, (a, _ZERO))], frozenset(out))

    def fails(self, state, a):
        """Does some t1 run ending with the letter a lack every partner?"""
        z, pairs = state
        return any(not any(self.t2_ends(c, w, a, z) for c in configs)
                   for (q1, configs) in pairs for w in self.t1_moves(q1, a)[1])

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


def _frontier_route(t1, t2, index, resync, max_input_len, caps):
    """For a plain call (one-way t2 with its ``MatchIndex`` index, a
    parameterless ``Resynchronizer``, no membership callback): the frontier
    when t1 is one-way and gamma never lets t2 write a letter before t1;
    otherwise None.  Its t1 runs carry their step counts and output
    lengths unless ``_t1_fits_caps`` shows that no cap can bind."""
    if not isinstance(t1, OneWayTransducer):
        return None
    dfa, delta = resync.gamma_dfa()
    letters = tuple(sorted(t1.input_alphabet))
    if _t2_may_lead(dfa, delta, letters):
        return None
    bound = None if _t1_fits_caps(t1, max_input_len, caps) else caps
    return _Frontier(t1, index, resync, letters, t2.output_alphabet, bound)


def contains_upto(t1, t2, resync, max_input_len, caps: RunCaps,
                  record=False, membership=None, stats=None) -> Verdict:
    """Sweep all inputs up to max_input_len; every t1 graph needs a t2
    partner with the same words accepted by the resynchronizer.

    Inputs are swept by length then lexicographically (``words_upto``
    order), each input's graphs in ``sort_key`` order, and the sweep stops
    at the first graph without an accepted partner, so the counterexample
    is the least one and verdicts are deterministic.  ``pruned`` covers the
    inputs swept: every input on a holding verdict, and on a failing one
    the inputs up to and including the counterexample's.

    A plain call that ``_frontier_route`` accepts (one-way t1 and t2, a
    parameterless ``Resynchronizer`` under which t2 never writes ahead of
    t1, no membership callback, no recording) finds the least failing
    input on the frontier instead, and takes its counterexample from that
    one input's graphs.  When ``_t1_fits_caps`` shows that no cap can
    bind, ``pruned`` is False, as the sweep's would be, and a layer of the
    frontier that adds no macro-state proves the verdict for every input
    length: ``saturated_at`` gives that layer.  Otherwise t1's runs on the
    frontier count their steps and output, ``saturated_at`` is None, and
    ``pruned`` is the sweep's, from t1's runs alone on the inputs the sweep
    would visit.  A dict passed as ``stats`` receives the route taken, the
    new macro-states per layer and, without a membership callback, the
    state count of each gamma DFA (one per output type for an extended
    resynchronizer) with the seconds taken to compile them, which then
    happens before the sweep.  Without a membership callback, base
    alphabets that miss one of t1's letters raise ``ResyncError`` before
    any input is swept.
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    extended = isinstance(resync, ExtendedResynchronizer)
    if membership is None and not t1.input_alphabet <= (
            resync.input_base if extended else resync.base):
        raise ResyncError("input word uses letters outside the resynchronizer's base alphabet")
    if membership is None and extended and not t1.output_alphabet <= resync.output_base:
        raise ResyncError("output word uses letters outside the resynchronizer's output alphabet")
    if stats is not None and membership is None:
        start = time.perf_counter()
        gammas = [resync._gamma_resync(t) for t in resync.types()] if extended else [resync]
        stats["gamma_states"] = tuple(len(g.gamma_dfa()[0].states) for g in gammas)
        stats["gamma_compile_s"] = time.perf_counter() - start
    one_way2 = isinstance(t2, OneWayTransducer)
    idx = MatchIndex(t2) if one_way2 else None
    partners = None if one_way2 else _partners_2nt(t2, caps.max_steps)
    check = membership or _default_membership(resync)
    plain = (membership is None and one_way2 and isinstance(resync, Resynchronizer)
             and resync.m == 0)
    ext = membership is None and one_way2 and extended and resync.m == 0 and resync.n_out == 0
    if plain or ext:
        # the search's gamma table admits exactly the partners gamma relates
        check = lambda sigma, sigma_p: ResyncWitness(())
    state = {"pruned": False, "cex": None}
    pairs = []

    def visit(u, res1):
        state["pruned"] = state["pruned"] or res1.pruned
        graphs = sorted(res1.graphs, key=lambda g: g.sort_key())
        if plain or ext:
            cache, fill = _gamma_table(resync, u)
        for sigma_p in graphs:
            v = sigma_p.output
            if not (plain or ext):
                matched = _first_accepted(idx, partners, sigma_p, check)
            elif plain or _ext_precheck_m0(resync, sigma_p):
                allowed = (cache, tuple(zip(v, sigma_p.orig)), fill)
                matched = (_first_accepted(idx, partners, sigma_p, check, allowed) if record
                           else idx.search(u, v, allowed) or None)
            else:
                matched = None
            if not matched:
                has_partner = idx.search(u, v) if one_way2 else bool(partners(u, v))
                reason = "no-accepted-partner" if has_partner else "no-partner"
                state["cex"] = Counterexample(sigma_p, reason)
                return False
            if record:
                pairs.append((matched[0], sigma_p, matched[1]))
        return True

    front = (_frontier_route(t1, t2, idx, resync, max_input_len, caps)
             if plain and not record else None)
    layers, saturated = [], None
    if front is None:
        sweep_origin_graphs(t1, max_input_len, caps, visit)
    else:
        u, layers, saturated = front.run(max_input_len)
        if u is not None and visit(u, run_origin_graphs(t1, u, caps)):
            raise AssertionError(f"frontier failure on {u} has no failing graph")
        if front.caps is not None:
            # the sweep's pruned, from t1's runs alone on the inputs it would visit
            saturated = None

            def cut(w, res):
                state["pruned"] = state["pruned"] or res.pruned
                return not state["pruned"] and w != u

            sweep_origin_graphs(t1, max_input_len, caps, cut)
    if stats is not None:
        stats.update(route="sweep" if front is None else "frontier", layers=layers)
    status = "holds-on-sweep" if state["cex"] is None else "fails"
    return Verdict(status, state["cex"], max_input_len, caps, state["pruned"], tuple(pairs),
                   saturated)


# -- minimum max-traversal over partners -------------------------------------

def _min_max_traversal_1nt(t2: OneWayTransducer, sigma_p: OriginGraph,
                           start_k=0, index=None):
    """max(start_k, min over t2 partners of the pair's max traversal).

    Iterative deepening on the bound k from start_k: each probe searches
    t2's run lattice with a budget that refuses a move as soon as a
    positional crossing count exceeds k, and the probes share their dead
    nodes.  A probe succeeding at k succeeds at every larger k, so a caller
    that only needs to know whether the minimum exceeds some bound passes
    it as start_k and pays one probe when it does not.  Partners have the
    exact (u, v), so the search is cap-free.  Returns math.inf when no
    partner exists.
    """
    u, v, orig_p = sigma_p.input, sigma_p.output, sigma_p.orig
    n = len(u)
    index = index or MatchIndex(t2)
    dead = set()
    for k in range(start_k, n + 1):
        # heads crossing each position z (1-based), per direction
        lr = [set() for _ in range(n + 1)]
        rl = [set() for _ in range(n + 1)]

        def budget(h, j, nj):
            # output positions j..nj-1 written at head h
            added = []
            for s in range(j, nj):
                y = orig_p[s]
                if h < y:
                    spans, zs = lr, range(h, y)
                elif h > y:
                    spans, zs = rl, range(y + 1, h + 1)
                else:
                    continue
                for z in zs:
                    heads = spans[z]
                    if h not in heads:
                        heads.add(h)
                        added.append((heads, h))
                        if len(heads) > k:
                            for (heads, h2) in added:
                                heads.discard(h2)
                            return False
            return added

        if index.search(u, v, budget=budget, dead=dead):
            return k
    return math.inf


@dataclass(frozen=True)
class TraversalProfile:
    values: dict                     # input length -> int or math.inf
    approximate: bool
    max_input_len: int

    def unbounded_growth_evidence(self):
        """Heuristic flag: strictly increasing over >= 4 consecutive lengths."""
        lens = sorted(self.values)
        run = 1
        for a, b in zip(lens, lens[1:]):
            va, vb = self.values[a], self.values[b]
            if b == a + 1 and va is not math.inf and vb is not math.inf and vb > va:
                run += 1
                if run >= 4:
                    return True
            else:
                run = 1
        return False

    def to_json(self):
        return {"profile": {str(n): ("inf" if v is math.inf else v)
                            for n, v in sorted(self.values.items())},
                "approximate": self.approximate,
                "unbounded_growth_evidence": self.unbounded_growth_evidence()}


def traversal_profile(t1, t2, max_input_len, caps: RunCaps) -> TraversalProfile:
    """profile(n) = max over t1 graphs with |u| = n of the least max
    traversal over same-words t2 partners; math.inf when a graph has no
    partner at all.
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    values = {n: 0 for n in range(1, max_input_len + 1)}
    state = {"pruned": False}
    one_way2 = isinstance(t2, OneWayTransducer)
    idx = MatchIndex(t2) if one_way2 else None
    partners = None if one_way2 else _partners_2nt(t2, caps.max_steps)

    def assess(u, res1):
        n = len(u)
        best = values[n]
        if res1.pruned:
            state["pruned"] = True
        for sigma_p in sorted(res1.graphs, key=lambda g: g.sort_key()):
            if best is math.inf:
                break
            if one_way2:
                val = _min_max_traversal_1nt(t2, sigma_p, start_k=best, index=idx)
            else:
                val = min((max_traversal(g, sigma_p) for g in partners(u, sigma_p.output)),
                          default=math.inf)
            if val is math.inf or val > best:
                best = val
        values[n] = best
        return True

    sweep_origin_graphs(t1, max_input_len, caps, assess)
    return TraversalProfile(values, state["pruned"], max_input_len)


# -- search over the R_k family ----------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    found: bool
    k: int | None
    verdict: Verdict | None
    profile: TraversalProfile | None

    def to_json(self):
        out = {"found": self.found}
        if self.found:
            out["k"] = self.k
            out["verdict"] = self.verdict.to_json()
        elif self.profile is not None:
            out["profile"] = self.profile.to_json()
        return out


def rk_membership_via_traversal(k):
    """Membership test for R_k using its traversal characterization.

    A pair belongs to [[R_k]] exactly when its per-direction traversal is
    at most k; accepted pairs return the greedy labeling as the witness
    (re-verified against gamma).  Cross-checked against the automaton
    route in the test suite.
    """
    rk_cache = {}

    def check(sigma, sigma_p):
        if max_traversal(sigma, sigma_p) > k:
            return None
        try:
            assign = greedy_label(sigma, sigma_p, k)
        except GreedyLabelError:
            return None
        w = assign.to_witness(len(sigma.input))
        base = tuple(sorted(set(sigma.input))) or ("a",)
        if base not in rk_cache:
            rk_cache[base] = make_Rk(k, base=base)
        return w if check_witness(rk_cache[base], sigma, sigma_p, w) else None

    return check


def resync_search(t1, t2, k_max, max_input_len, caps: RunCaps) -> SearchResult:
    """Least k <= k_max with contains_upto(t1, t2, R_k) holding on the sweep.

    A pair is in R_k exactly when its traversal is at most k (the
    characterization ``rk_membership_via_traversal`` checks), so that k is
    the largest value of one ``traversal_profile`` sweep: found with a
    ``holds-on-sweep`` verdict whose ``pruned`` is the profile's
    ``approximate`` when it is at most k_max, not found with the profile
    otherwise.  Evidence only: a found k certifies the sweep, not the full
    relation.
    """
    profile = traversal_profile(t1, t2, max_input_len, caps)
    k = max(profile.values.values(), default=0)
    if k > k_max:
        return SearchResult(False, None, None, profile)
    verdict = Verdict("holds-on-sweep", None, max_input_len, caps, profile.approximate)
    return SearchResult(True, k, verdict, None)


def report_json(obj) -> str:
    return json.dumps(obj.to_json(), indent=2, sort_keys=True)
