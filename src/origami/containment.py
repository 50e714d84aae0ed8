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
enumerating graphs; other resynchronizers, and the traversal profile of a
two-way t1, test each distinct partner the search finds.  A two-way t2
gives one set of graphs per input, grouped by output in ``sort_key`` order
(``_partner_groups``): t1's own graphs on the input when t2 equals t1,
otherwise one run of t2 under the output cap of t1's longest output there,
which finds every graph with a shorter output too.  The partner test, the
no-partner reason and the traversal profile all read those groups, and a
parameterless resynchronizer checks the listed partners against the same
gamma table, in order, the first one admitted being the partner.

Frontier route: a plain call (one-way t1 and t2, parameterless
``Resynchronizer``, no membership callback, no recording) whose gamma
never puts t2's origin before t1's does not enumerate inputs.
``frontier._Frontier`` runs one forward t1 x t2 product over the input
tree, merging the prefixes that reach the same macro-state, finds the
least failing input layer by layer, and the per-input path turns that one
input into the counterexample.  Unless no cap can bind (``_t1_fits_caps``), each
t1 run carries its step count and output length, so that the caps cut the
runs the sweep cuts; ``pruned`` then comes from t1's sweep alone.  When no
cap can bind, a layer with no new macro-state proves the verdict for every
input length (``Verdict.saturated_at``).

The traversal profile of one-way t1 and t2 comes from the same kind of
product (``frontier._ProfileFrontier``): t2's configurations carry, for
the side that is ahead, its unmatched letters in blocks with the
crossing counts of their cuts, and every layer's macro-states give the
profile at the next length.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from .resync import (Resynchronizer, ExtendedResynchronizer, ResyncWitness, ResyncError,
                     pair_in_resync, extended_pair_in_resync, check_witness, make_Rk)
from .transducers import (OneWayTransducer, OriginGraph, RunCaps, MatchIndex,
                          TransducerAlphabetError, run_origin_graphs, sweep_origin_graphs)
from .frontier import _Frontier, _ProfileFrontier, _t1_fits_caps, _t2_may_lead
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


def _table_admits(cache, fill, org, keys):
    """Does the gamma table of ``_gamma_table`` admit a partner with origins
    org, key s being keys[s] at output position s?"""
    for h, key in zip(org, keys):
        got = cache.get((h, key))
        if got is None:
            got = fill(h, key)
        if not got:
            return False
    return True


def _partner_groups(t2, u, graphs, same, max_steps):
    """The graphs of two-way t2 on u with the outputs of t1's graphs on u
    (``graphs``, non-empty, in ``sort_key`` order), grouped by output, each
    group in ``sort_key`` order.

    When t2 equals t1 (same), these are t1's own graphs.  Otherwise t2
    runs once, under the output cap of t1's longest output: the graphs with
    output v are the same under every output cap of at least |v|
    (``transducers._run_2nt``), so one run serves every output of t1.
    """
    if not same:
        longest = max(len(g.output) for g in graphs)
        res = run_origin_graphs(t2, u, RunCaps(max(1, longest), max_steps))
        graphs = sorted(res.graphs, key=OriginGraph.sort_key)
    groups = {}
    for g in graphs:
        groups.setdefault(g.output, []).append(g)
    return groups


def _first_accepted(index, groups, sigma_p, check, allowed=None):
    """The first (partner, witness) that check accepts among t2's graphs
    with sigma_p's words, each distinct partner tested once, or None.  A
    one-way t2 is searched on its index, a two-way t2's partners are
    listed from its ``_partner_groups``."""
    if index is None:
        for g in groups.get(sigma_p.output, ()):
            w = check(g, sigma_p)
            if w is not None:
                return g, w
        return None
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

    index.search(u, v, allowed, each=each)
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


def _frontier_route(t1, t2, index, resync, max_input_len, caps):
    """For a plain call (one-way t2 with its ``MatchIndex`` index, a
    parameterless ``Resynchronizer``, no membership callback): the frontier
    when t1 is one-way and gamma never lets t2 write a letter before t1;
    otherwise None.  Its t1 runs carry their step counts and output
    lengths unless ``_t1_fits_caps`` shows that no cap can bind."""
    if not (isinstance(t1, OneWayTransducer) and isinstance(t2, OneWayTransducer)):
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
    happens before the sweep.  On the sweep it also receives three
    counters: ``inputs`` visited, t1 ``graphs`` checked, and ``t2_runs``,
    the runs of a two-way t2 (none when t2 equals t1, whose own graphs are
    its partners).  Without a membership callback, base
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
    same = not one_way2 and t2 == t1
    check = membership or _default_membership(resync)
    plain = membership is None and isinstance(resync, Resynchronizer) and resync.m == 0
    ext = membership is None and extended and resync.m == 0 and resync.n_out == 0
    table = plain or ext
    if table:
        # the search's gamma table admits exactly the partners gamma relates
        check = lambda sigma, sigma_p: ResyncWitness(())
    state = {"pruned": False, "cex": None}
    pairs = []
    tally = None

    def visit(u, res1):
        state["pruned"] = state["pruned"] or res1.pruned
        if tally is not None:
            tally["inputs"] += 1
        if not res1.graphs:
            return True
        graphs = sorted(res1.graphs, key=OriginGraph.sort_key)
        groups = None
        if not one_way2:
            groups = _partner_groups(t2, u, graphs, same, caps.max_steps)
            if tally is not None and not same:
                tally["t2_runs"] += 1
        if table:
            cache, fill = _gamma_table(resync, u)
        for sigma_p in graphs:
            if tally is not None:
                tally["graphs"] += 1
            v = sigma_p.output
            if not table:
                matched = _first_accepted(idx, groups, sigma_p, check)
            elif plain or _ext_precheck_m0(resync, sigma_p):
                keys = tuple(zip(v, sigma_p.orig))
                if not one_way2:
                    g = next((g for g in groups.get(v, ())
                              if _table_admits(cache, fill, g.orig, keys)), None)
                    matched = g and (g, ResyncWitness(()))
                elif record:
                    matched = _first_accepted(idx, None, sigma_p, check, (cache, keys, fill))
                else:
                    matched = idx.search(u, v, (cache, keys, fill)) or None
            else:
                matched = None
            if not matched:
                has_partner = idx.search(u, v) if one_way2 else v in groups
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
        if stats is not None:
            tally = {"inputs": 0, "graphs": 0, "t2_runs": 0}
        sweep_origin_graphs(t1, max_input_len, caps, visit)
        if tally is not None:
            stats.update(tally)
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


def traversal_profile(t1, t2, max_input_len, caps: RunCaps, stats=None) -> TraversalProfile:
    """profile(n) = max over t1 graphs with |u| = n of the least max
    traversal over same-words t2 partners; math.inf when a graph has no
    partner at all.

    With one-way t1 and t2 the profile comes from one forward product over
    the input tree (``_ProfileFrontier``).  Unless ``_t1_fits_caps`` shows
    that no cap can bind, t1's runs there count their steps and output,
    and ``approximate`` comes from t1's sweep alone, as in
    ``contains_upto``.  Otherwise inputs are swept one by one: a one-way
    t2's partners are listed by ``MatchIndex.search``, a two-way t2's from
    its ``_partner_groups`` on the input (t1's own graphs when t2 equals
    t1, else one run of t2).  A dict passed as ``stats`` receives the
    route taken and, on the frontier, the macro-states each length's end
    check reads; on the sweep, the counters of ``contains_upto``: inputs
    visited, t1 graphs assessed and two-way t2 runs.
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    state = {"pruned": False}
    one_way2 = isinstance(t2, OneWayTransducer)
    idx = MatchIndex(t2) if one_way2 else None
    if one_way2 and isinstance(t1, OneWayTransducer):
        fits = _t1_fits_caps(t1, max_input_len, caps)
        front = _ProfileFrontier(t1, idx, tuple(sorted(t1.input_alphabet)), t2.output_alphabet,
                                 None if fits else caps, caps.max_output_len, max_input_len)
        values, layers = front.run(max_input_len)
        if not fits:
            def cut(_u, res):
                state["pruned"] = res.pruned
                return not res.pruned

            sweep_origin_graphs(t1, max_input_len, caps, cut)
        if stats is not None:
            stats.update(route="frontier", layers=layers)
        return TraversalProfile(values, state["pruned"], max_input_len)
    values = {n: 0 for n in range(1, max_input_len + 1)}
    same = not one_way2 and t2 == t1
    tally = None if stats is None else {"inputs": 0, "graphs": 0, "t2_runs": 0}

    def assess(u, res1):
        n = len(u)
        best = values[n]
        if res1.pruned:
            state["pruned"] = True
        if tally is not None:
            tally["inputs"] += 1
        if not res1.graphs or best is math.inf:
            return True
        graphs = sorted(res1.graphs, key=OriginGraph.sort_key)
        if not one_way2:
            groups = _partner_groups(t2, u, graphs, same, caps.max_steps)
            if tally is not None and not same:
                tally["t2_runs"] += 1
        for sigma_p in graphs:
            if best is math.inf:
                break
            if tally is not None:
                tally["graphs"] += 1
            v = sigma_p.output
            if one_way2:
                least = [math.inf]

                def each(org):
                    least[0] = min(least[0], max_traversal(OriginGraph(u, v, org), sigma_p))
                    return least[0] <= best

                idx.search(u, v, each=each)
                val = least[0]
            else:
                val = min((max_traversal(g, sigma_p) for g in groups.get(v, ())),
                          default=math.inf)
            if val > best:
                best = val
        values[n] = best
        return True

    sweep_origin_graphs(t1, max_input_len, caps, assess)
    if stats is not None:
        stats.update(route="sweep", layers=[], **tally)
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
