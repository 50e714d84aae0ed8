"""Bounded-length containment up to a resynchronizer, the R_k search, and
traversal-growth profiling.

Convention: contains_upto(t1, t2, R, ...) checks that every origin graph
sigma' of t1 (within the sweep bounds) is a resynchronization of some
graph sigma of t2, i.e. (sigma, sigma') is in [[R]] with sigma the source.
This is a desk-scale verifier over finite sweeps, not a decision
procedure; the underlying relation is undecidable in general.

Per-input sweep: ``_sweep`` hands each input up to the bound, in
``words_upto`` order, with t1's graphs on it in ``sort_key`` order, to a
judge, ``contains_upto``'s partner test or ``traversal_profile``'s least
traversal.  It keeps ``pruned`` and the sweep counters, and every partner
query goes through one ``search``: ``MatchIndex.search`` on a one-way
t2's run lattice, or a ``_Listing`` of a two-way t2's graphs on the
input, grouped by output in ``sort_key`` order, from t2's run under the
sweep's caps (kept on the machine, so an earlier call may have made it;
a t2 equal to t1 lists the graphs the sweep sorted for the judge).
Parameterless resynchronizers check a table of gamma answers, one per
input, during the search, without enumerating graphs; other
resynchronizers, and the traversal profile, test each distinct partner
the search finds.

Frontier route: a plain call (one-way t1 and t2, parameterless
``Resynchronizer``, no membership callback, no recording) whose gamma
never puts t2's origin before t1's does not enumerate inputs.
``frontier._Frontier`` runs one forward t1 x t2 product over the input
tree, merging the prefixes that reach the same macro-state, finds the
least failing input layer by layer, and ``_sweep`` turns that one input
into the counterexample.  What does not read gamma, t2's ``MatchIndex``
and each machine's frontier tables, is kept on the machine object
(``transducers._memo``) and shared by every call on it.  Unless no cap
can bind (``_t1_fits_caps``), each t1 run carries its step count and
output length, so that the caps cut the runs the sweep cuts; ``pruned``
then comes from t1's sweep alone (``_t1_pruned``).  When no cap can bind, a layer with no new macro-state
proves the verdict for every input length (``Verdict.saturated_at``).

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
                     pair_in_resync, extended_pair_in_resync, _least_valuation)
from .transducers import (OneWayTransducer, OriginGraph, RunCaps, _NO_TABLE, _index,
                          TransducerAlphabetError, run_origin_graphs, sweep_origin_graphs)
from .frontier import _Frontier, _ProfileFrontier, _t2_may_lead
from .traversal import max_traversal


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
    """(cache, fill) of the partner search's table of gamma answers on the
    input u, keyed (h, y) for a parameterless ``Resynchronizer``, whose
    gamma reads no output letter, and (h, (output letter, y)) for an
    extended one without parameters, which has one gamma per output
    letter.  It lasts one input."""
    cache = {}
    plain = isinstance(resync, Resynchronizer)

    def fill(h, key):
        if plain:
            gamma, y = resync, key
        else:
            gamma, y = resync._gamma_resync((key[0],)), key[1]
        got = cache[(h, key)] = gamma.gamma_holds_dfa(u, (), h, y)
        return got

    return cache, fill


class _Listing:
    """A two-way t2's graphs on one input, searched as ``MatchIndex.search``
    searches a one-way t2's runs: the graphs with output v, in ``sort_key``
    order, that the gamma table ``allowed`` admits go to ``each`` until it
    returns true.

    The first search asks ``run_origin_graphs`` for the run of the machine
    m on the input under the sweep's caps and groups its origin tuples by
    output, each group sorted (``sort_key`` order).  The run comes from
    m's memo when an earlier call on the same object made it.  A tally
    dict counts in ``t2_runs`` the listings that asked for a run, whether
    or not it was made anew.  ``of_graphs`` lists graphs already in
    ``sort_key`` order instead, with no run and no sort.
    """

    def __init__(self, m, caps, tally):
        self.m, self.caps, self.tally = m, caps, tally
        self.groups = None

    @classmethod
    def of_graphs(cls, graphs):
        """The listing of graphs given in ``sort_key`` order, all on one
        input: the sweep's own graphs, when t2 is t1."""
        listing = cls(None, None, None)
        groups = listing.groups = {}
        for g in graphs:
            groups.setdefault(g.output, []).append(g.orig)
        return listing

    def search(self, u, v, allowed=None, each=None):
        if self.groups is None:
            self.groups = {}
            for g in run_origin_graphs(self.m, u, self.caps).graphs:
                self.groups.setdefault(g.output, []).append(g.orig)
            for origs in self.groups.values():
                origs.sort()
            if self.tally is not None:
                self.tally["t2_runs"] += 1
        cache, keys, fill = allowed or _NO_TABLE
        for org in self.groups.get(v, ()):
            for h, key in zip(org, keys):
                got = cache.get((h, key))
                if got is None:
                    got = fill(h, key)
                if not got:
                    break
            else:
                if each is None or each(org):
                    return True
        return False


def _sweep(t1, t2, max_input_len, caps, judge, stats, inputs=None):
    """Run judge(u, graphs, partners) on each input u where t1 has graphs,
    until it returns False: every input up to max_input_len in
    ``words_upto`` order, or those of inputs.  graphs are t1's graphs on u
    in ``sort_key`` order; partners answers ``MatchIndex.search`` for t2:
    the ``MatchIndex`` kept on a one-way t2, a ``_Listing`` for a two-way
    one.  Returns ``pruned`` over the inputs visited.  A dict stats
    receives the counters ``inputs`` visited, t1 ``graphs`` judged and
    ``t2_runs``, the runs of a two-way t2 that the listings ask for, made
    or read from t2's memo.  A two-way t2 equal to t1 lists the graphs the
    judge gets, in the order they are sorted in once, and counts no run."""
    tally = None if stats is None else {"inputs": 0, "graphs": 0, "t2_runs": 0}
    index = _index(t2) if isinstance(t2, OneWayTransducer) else None
    own = index is None and t2 == t1
    pruned = False

    def counted(graphs):
        for g in graphs:
            tally["graphs"] += 1
            yield g

    def visit(u, res1):
        nonlocal pruned
        pruned = pruned or res1.pruned
        if tally is not None:
            tally["inputs"] += 1
        if not res1.graphs:
            return True
        graphs = sorted(res1.graphs, key=OriginGraph.sort_key)
        partners = index if index is not None else \
            _Listing.of_graphs(graphs) if own else _Listing(t2, caps, tally)
        return judge(u, graphs if tally is None else counted(graphs), partners)

    if inputs is None:
        sweep_origin_graphs(t1, max_input_len, caps, visit)
    else:
        for u in inputs:
            visit(u, run_origin_graphs(t1, u, caps))
    if stats is not None:
        stats.update(tally)
    return pruned


def _t1_pruned(t1, max_input_len, caps, last=None):
    """The sweep's ``pruned`` from t1's runs alone: does a cap cut a run on
    an input up to max_input_len, in ``words_upto`` order up to and
    including last when given?"""
    cut = []

    def visit(u, res):
        if res.pruned:
            cut.append(u)
        return not res.pruned and u != last

    sweep_origin_graphs(t1, max_input_len, caps, visit)
    return bool(cut)


def _first_accepted(partners, sigma_p, check, allowed=None):
    """The first (partner, witness) that check accepts among t2's graphs
    with sigma_p's words, each distinct partner tested once, or None."""
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

    partners.search(u, v, allowed, each=each)
    return matched[0] if matched else None


def _default_membership(resync):
    if isinstance(resync, ExtendedResynchronizer):
        return lambda s, sp: extended_pair_in_resync(resync, s, sp)
    return lambda s, sp: pair_in_resync(resync, s, sp)


def _ext_precheck_m0(resync, sigma_p):
    """Extended with no parameters: alpha, beta and delta read sigma' only.
    beta is evaluated on the output; alpha and the deltas go through
    membership's search, with no parameter to find."""
    if not resync._beta_holds(sigma_p.output, ()):
        return False
    tys = [(c,) for c in sigma_p.output]
    return _least_valuation(resync._checks(tys, None, sigma_p.orig), sigma_p.input, 0) is not None


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

    A plain call (one-way t1 and t2, a parameterless ``Resynchronizer``
    under which t2 never writes ahead of t1 (``_t2_may_lead``), no
    membership callback, no recording) finds the least failing input on
    the frontier (``_Frontier``) instead, and takes its counterexample
    from that one input's graphs.  When ``_t1_fits_caps`` shows that no
    cap can bind, ``pruned`` is False, as the sweep's would be, and a
    layer of the frontier that adds no macro-state proves the verdict for
    every input length: ``saturated_at`` gives that layer.  Otherwise t1's
    runs on the frontier count their steps and output, ``saturated_at`` is
    None, and ``pruned`` is the sweep's, from t1's runs alone on the
    inputs the sweep would visit (``_t1_pruned``).  The tables that do not
    read gamma, t2's ``MatchIndex`` and each machine's frontier tables,
    are kept on the machine objects (``transducers._memo``) and shared by
    every call on them, ``traversal_profile``'s too; the gamma tables and
    the macro-states are the call's own.  A dict passed as ``stats``
    receives the route taken, the new macro-states per layer, on the
    frontier its ``free_exits`` (pair steps that left through a free t2
    state) and ``t2_steps`` (distinct t2 successor sets built) and, without a
    membership callback, the state count of each gamma DFA (one per output
    type for an extended resynchronizer) with the seconds taken to compile
    them, which then happens before the sweep.  On the sweep it also
    receives the counters of ``_sweep``: ``inputs`` visited, t1 ``graphs``
    checked and ``t2_runs``.  Without a membership callback, base alphabets
    that miss one of t1's letters raise ``ResyncError`` before any input
    is swept.
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
    check = membership or _default_membership(resync)
    plain = membership is None and isinstance(resync, Resynchronizer) and resync.m == 0
    ext = membership is None and extended and resync.m == 0 and resync.n_out == 0
    table = plain or ext
    if table:
        # the search's gamma table admits exactly the partners gamma relates
        check = lambda sigma, sigma_p: ResyncWitness(())
    pairs, cex = [], None

    def judge(u, graphs, partners):
        nonlocal cex
        if table:
            cache, fill = _gamma_table(resync, u)
        for sigma_p in graphs:
            v = sigma_p.output
            if not table:
                matched = _first_accepted(partners, sigma_p, check)
            elif plain or _ext_precheck_m0(resync, sigma_p):
                allowed = (cache, sigma_p.orig if plain else tuple(zip(v, sigma_p.orig)), fill)
                if record:
                    matched = _first_accepted(partners, sigma_p, check, allowed)
                else:
                    matched = partners.search(u, v, allowed)
            else:
                matched = None
            if not matched:
                reason = "no-accepted-partner" if partners.search(u, v) else "no-partner"
                cex = Counterexample(sigma_p, reason)
                return False
            if record:
                pairs.append((matched[0], sigma_p, matched[1]))
        return True

    front = None
    one_way = isinstance(t1, OneWayTransducer) and isinstance(t2, OneWayTransducer)
    if plain and not record and one_way:
        if not _t2_may_lead(*resync.gamma_dfa(), tuple(sorted(t1.input_alphabet))):
            front = _Frontier(t1, t2, max_input_len, caps, resync)
    if front is None:
        layers, saturated = [], None
        pruned = _sweep(t1, t2, max_input_len, caps, judge, stats)
    else:
        u, layers, saturated = front.run(max_input_len)
        if u is not None:
            _sweep(t1, t2, max_input_len, caps, judge, None, inputs=(u,))
            if cex is None:
                raise AssertionError(f"frontier failure on {u} has no failing graph")
        pruned = False
        if front.m1.caps is not None:
            saturated = None
            pruned = _t1_pruned(t1, max_input_len, caps, u)
    if stats is not None:
        stats.update(route="sweep" if front is None else "frontier", layers=layers)
        if front is not None:
            stats.update(free_exits=front.free_exits, t2_steps=len(front.next2))
    status = "holds-on-sweep" if cex is None else "fails"
    return Verdict(status, cex, max_input_len, caps, pruned, tuple(pairs), saturated)


@dataclass(frozen=True)
class TraversalProfile:
    values: dict                     # input length -> int or math.inf
    approximate: bool
    max_input_len: int

    def unbounded_growth_evidence(self):
        """Heuristic flag: the profile keeps rising, never more slowly.  The
        lengths at which it rises strictly between two finite values number
        at least three, the gaps between consecutive ones never grow, and no
        more lengths follow the last rise than its gap."""
        lens = sorted(self.values)
        rises = [b for a, b in zip(lens, lens[1:])
                 if self.values[b] is not math.inf and self.values[a] < self.values[b]]
        if len(rises) < 3:
            return False
        gaps = [b - a for a, b in zip(rises, rises[1:])]
        steady = all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
        return steady and sum(n > rises[-1] for n in lens) <= gaps[-1]

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
    and ``approximate`` comes from t1's sweep alone (``_t1_pruned``), as
    in ``contains_upto``.  Its t1 and t2 moves come from the tables kept on
    the machine objects, shared with ``contains_upto``; the output room
    per state and the values are the call's own.  Otherwise inputs are swept
    one by one (``_sweep``), and an input whose length already has the
    value math.inf is not searched.  A dict passed as ``stats`` receives the
    route taken and, on the frontier, the macro-states each length's end
    check reads; on the sweep, the counters of ``_sweep``: inputs visited,
    t1 graphs assessed and two-way t2 runs.
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    if isinstance(t1, OneWayTransducer) and isinstance(t2, OneWayTransducer):
        front = _ProfileFrontier(t1, t2, max_input_len, caps)
        values, layers = front.run(max_input_len)
        pruned = front.m1.caps is not None and _t1_pruned(t1, max_input_len, caps)
        if stats is not None:
            stats.update(route="frontier", layers=layers)
        return TraversalProfile(values, pruned, max_input_len)
    values = {n: 0 for n in range(1, max_input_len + 1)}

    def judge(u, graphs, partners):
        n = len(u)
        best = values[n]
        if best is math.inf:
            return True
        for sigma_p in graphs:
            v = sigma_p.output
            least = [math.inf]

            def each(org):
                least[0] = min(least[0], max_traversal(OriginGraph(u, v, org), sigma_p))
                return least[0] <= best

            partners.search(u, v, each=each)
            if least[0] > best:
                best = least[0]
                if best is math.inf:
                    break
        values[n] = best
        return True

    pruned = _sweep(t1, t2, max_input_len, caps, judge, stats)
    if stats is not None:
        stats.update(route="sweep", layers=[])
    return TraversalProfile(values, pruned, max_input_len)


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


def resync_search(t1, t2, k_max, max_input_len, caps: RunCaps) -> SearchResult:
    """Least k <= k_max with contains_upto(t1, t2, R_k) holding on the sweep.

    A pair is in R_k exactly when its traversal is at most k, so that k is
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
