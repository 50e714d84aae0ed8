"""Bounded-length containment up to a resynchronizer, the R_k search, and
traversal-growth profiling.

Convention: contains_upto(t1, t2, R, ...) checks that every origin graph
sigma' of t1 (within the sweep bounds) is a resynchronization of some
graph sigma of t2, i.e. (sigma, sigma') is in [[R]] with sigma the source.
This is a desk-scale verifier over finite sweeps, not a decision
procedure; the underlying relation is undecidable in general.

Partner search: every partner query on a one-way t2 is one search of its
run lattice (``MatchIndex.search``).  Parameterless resynchronizers check a
per-position allowed-origin table during the search, without enumerating
graphs; the traversal profile checks a crossing budget; other
resynchronizers test each distinct partner the search finds.  A two-way
t2 runs once per input and output length, under the output cap |v|, and
its graphs are grouped by output in ``sort_key`` order (``_partners_2nt``):
the partner test, the no-partner reason and the traversal profile all
read those groups.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .resync import (Resynchronizer, ExtendedResynchronizer, ResyncWitness,
                     pair_in_resync, extended_pair_in_resync, check_witness, make_Rk)
from .transducers import (OneWayTransducer, OriginGraph, RunCaps, MatchIndex,
                          TransducerAlphabetError, run_origin_graphs, sweep_origin_graphs)
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


def _emission_table_ext(resync, sigma_p):
    """Per-type emission oracle; targets carry the output type so the cache
    key (h, (type, y)) distinguishes positions with different types."""
    u, v, orig_p = sigma_p.input, sigma_p.output, sigma_p.orig
    targets = tuple(((v[t],), orig_p[t]) for t in range(len(v)))
    cache = {}

    def fill(h, tagged):
        tau, y = tagged
        got = cache[(h, tagged)] = resync._gamma_resync(tau).gamma_holds_dfa(u, (), h, y)
        return got

    return (cache, targets, fill)


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


def contains_upto(t1, t2, resync, max_input_len, caps: RunCaps,
                  record=False, membership=None) -> Verdict:
    """Sweep all inputs up to max_input_len; every t1 graph needs a t2
    partner with the same words accepted by the resynchronizer.

    Inputs are swept by length then lexicographically (``words_upto``
    order), each input's graphs in ``sort_key`` order, and the sweep stops
    at the first graph without an accepted partner, so the counterexample
    is the least one and verdicts are deterministic.  ``pruned`` covers the
    inputs swept: every input on a holding verdict, and on a failing one
    the inputs up to and including the counterexample's.
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    one_way2 = isinstance(t2, OneWayTransducer)
    idx = MatchIndex(t2) if one_way2 else None
    partners = None if one_way2 else _partners_2nt(t2, caps.max_steps)
    check = membership or _default_membership(resync)
    plain = (membership is None and one_way2 and isinstance(resync, Resynchronizer)
             and resync.m == 0)
    ext = (membership is None and one_way2 and isinstance(resync, ExtendedResynchronizer)
           and resync.m == 0 and resync.n_out == 0)
    if plain or ext:
        # the search's gamma table admits exactly the partners gamma relates
        check = lambda sigma, sigma_p: ResyncWitness(())
    shared = _PrefixGammaCache(resync) if plain else None
    state = {"pruned": False, "cex": None}
    pairs = []

    def visit(u, res1):
        state["pruned"] = state["pruned"] or res1.pruned
        graphs = sorted(res1.graphs, key=lambda g: g.sort_key())
        if shared is not None:
            shared.move_to(u)
        for sigma_p in graphs:
            v = sigma_p.output
            if not (plain or ext):
                matched = _first_accepted(idx, partners, sigma_p, check)
            elif plain or _ext_precheck_m0(resync, sigma_p):
                allowed = ((shared.cache, sigma_p.orig, shared.fill) if plain
                           else _emission_table_ext(resync, sigma_p))
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

    sweep_origin_graphs(t1, max_input_len, caps, visit)
    status = "holds-on-sweep" if state["cex"] is None else "fails"
    return Verdict(status, state["cex"], max_input_len, caps, state["pruned"], tuple(pairs))


def _zero_extension_stable(resync):
    """Does appending letters with all-zero tracks never change gamma?

    Checked statewise on the minimized automaton; shift-like formulas pass,
    position-sensitive ones (last, block ends) fail and fall back to the
    per-input search.
    """
    dfa, delta = resync.gamma_dfa()
    zeros = (0,) * (resync.m + 2)
    for s in dfa.states:
        acc = s in dfa.final
        for a in sorted(dfa.alphabet.base):
            if (delta[(s, (a, zeros))] in dfa.final) != acc:
                return False
    return True


def _letter_blind(resync):
    """Does gamma ignore the input letters, so that only the marked
    positions matter?  Checked statewise on the minimized automaton."""
    dfa, delta = resync.gamma_dfa()
    for s in dfa.states:
        for bits in itertools.product((0, 1), repeat=resync.m + 2):
            if len({delta[(s, (a, bits))] for a in dfa.alphabet.base}) > 1:
                return False
    return True


class _PrefixGammaCache:
    """gamma(u, x, y) answers of a plain parameterless resynchronizer,
    shared by the graphs of one input and, where gamma allows, by later
    inputs of the sweep.

    How long an entry lives is read off the minimized automaton.  When
    appending letters with all-zero tracks never changes gamma
    (zero-extension-stable), the answer depends on the prefix u[:max(x, y)]
    alone: entries are tagged with max(x, y) and dropped when the next
    input leaves that prefix, and if gamma is also letter-blind (shift-like
    formulas) they depend on (x, y) alone and last the whole sweep.
    Otherwise entries last for the current input only.
    """

    def __init__(self, resync):
        dfa, delta = resync.gamma_dfa()
        self.d_init = next(iter(dfa.initial))
        self.d_final = dfa.final
        self.d_delta = delta
        self.stable = _zero_extension_stable(resync)
        self.blind = self.stable and _letter_blind(resync)
        self.cache = {}
        self.by_depth = []   # keys added per prefix depth
        self.word = ()

    def move_to(self, u):
        """Adjust to the next input of the sweep."""
        if not self.stable:
            self.cache.clear()
        elif not self.blind:
            common = 0
            for a, b in zip(self.word, u):
                if a != b:
                    break
                common += 1
            while len(self.by_depth) > common:
                for k in self.by_depth.pop():
                    self.cache.pop(k, None)
            self.by_depth.extend([] for _ in range(len(u) - common))
        self.word = u

    def fill(self, h, y):
        u = self.word
        state = self.d_init
        delta = self.d_delta
        end = max(h, y) if self.stable else len(u)
        for p in range(1, end + 1):
            state = delta[(state, (u[p - 1], (1 if p == h else 0, 1 if p == y else 0)))]
        got = self.cache[(h, y)] = state in self.d_final
        if self.stable and not self.blind:
            self.by_depth[end - 1].append((h, y))
        return got


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

    Evidence only: a found k certifies the sweep, not the full relation.
    R_k membership uses the traversal characterization plus the greedy
    witness.
    """
    base = tuple(sorted(t1.input_alphabet))
    for k in range(0, k_max + 1):
        verdict = contains_upto(t1, t2, make_Rk(k, base=base), max_input_len, caps,
                                membership=rk_membership_via_traversal(k))
        if verdict.holds:
            return SearchResult(True, k, verdict, None)
    profile = traversal_profile(t1, t2, max_input_len, caps)
    return SearchResult(False, None, None, profile)


def report_json(obj) -> str:
    return json.dumps(obj.to_json(), indent=2, sort_keys=True)
