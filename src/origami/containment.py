"""Bounded-length containment up to a resynchronizer, the R_k search, and
traversal-growth profiling.

Convention: contains_upto(t1, t2, R, ...) checks that every origin graph
sigma' of t1 (within the sweep bounds) is a resynchronization of some
graph sigma of t2, i.e. (sigma, sigma') is in [[R]] with sigma the source.
This is a desk-scale verifier over finite sweeps, not a decision
procedure; the underlying relation is undecidable in general.

Partner search: for parameterless resynchronizers over one-way t2 the
search runs directly on the run lattice with a per-position allowed-origin
table (complete, no graph enumeration); otherwise candidate graphs are
enumerated in deterministic order and tested one by one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .resync import (Resynchronizer, ExtendedResynchronizer, ResyncWitness,
                     pair_in_resync, extended_pair_in_resync, check_witness, make_Rk)
from .transducers import (OneWayTransducer, OriginGraph, RunCaps, EPS,
                          run_origin_graphs, sweep_origin_graphs, MatchIndex)
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


def _find_partner_m0(t2: OneWayTransducer, u, v, emission, index=None,
                     want_witness=True):
    """Origin tuple of some run of t2 on (u, v) where every output position
    t is emitted at an allowed head; None if none.

    ``emission`` is (cache, orig_p, fill): the check for head h at output t
    is cache[(h, orig_p[t])], computed by fill(h, orig_p[t]) on a miss.
    First-success DFS over the run lattice with a failed-node memo, so the
    search visits each reachable lattice cell at most once.  Without
    want_witness, a bare sentinel replaces the origin tuple.
    """
    n, m = len(u), len(v)
    index = index or MatchIndex(t2)
    failed = set()
    onpath = set()
    final = t2.final
    exact = index.exact
    lens = index.lens
    pad = index.pad
    sink = index.sink
    ecache, orig_p, fill = emission
    eget = ecache.get
    hit = ()

    def rec(q, i, j, org):
        # second component: failure independent of the current path, so
        # memoizable (eps cycles make some failures context-dependent)
        if i == n and j == m and q in final:
            return org, True
        if i == n or q in sink:
            # success-only shortcut: skip the rest of the input silently
            # and pad the remaining output at the last position in one scan
            letters = pad.get(q)
            if letters is not None:
                ok = True
                for s in range(j, m):
                    if v[s] not in letters:
                        ok = False
                        break
                    got = eget((n, orig_p[s]))
                    if got is None:
                        got = fill(n, orig_p[s])
                    if not got:
                        ok = False
                        break
                if ok:
                    return (org + (n,) * (m - j) if want_witness else hit), True
        key = (q, i, j)
        if key in failed:
            return None, True
        if key in onpath:
            return None, False
        onpath.add(key)
        clean = True
        for consuming in (1, 0):
            if consuming:
                if i >= n:
                    continue
                a = u[i]
                ni, origin = i + 1, i + 1
            else:
                a = EPS
                ni, origin = i, (i + 1 if i < n else n)
            for lo in lens.get((q, a), ()):
                nj = j + lo
                if nj > m:
                    break
                batch = exact.get((q, a, v[j:nj]))
                if not batch:
                    continue
                if lo:
                    bad = False
                    for s in range(j, nj):
                        got = eget((origin, orig_p[s]))
                        if got is None:
                            got = fill(origin, orig_p[s])
                        if not got:
                            bad = True
                            break
                    if bad:
                        continue
                norg = org + (origin,) * lo if want_witness else hit
                for r in batch:
                    res, c = rec(r, ni, nj, norg)
                    if res is not None:
                        onpath.discard(key)
                        return res, True
                    clean = clean and c
        onpath.discard(key)
        if clean:
            failed.add(key)
        return None, clean

    for q0 in sorted(t2.initial, key=repr):
        res, _c = rec(q0, 0, 0, ())
        if res is not None:
            return res
    return None


def _candidate_graphs(t2, u, v, caps, index=None):
    """Deterministically ordered partner graphs of t2 with output v on u."""
    from .transducers import enumerate_matching_graphs
    if isinstance(t2, OneWayTransducer):
        for org in enumerate_matching_graphs(t2, u, v, index):
            yield OriginGraph(u, v, org)
    else:
        res = run_origin_graphs(t2, u, caps)
        for g in sorted(res.graphs, key=lambda g: g.sort_key()):
            if g.output == v:
                yield g


def _default_membership(resync):
    if isinstance(resync, ExtendedResynchronizer):
        return lambda s, sp: extended_pair_in_resync(resync, s, sp)
    return lambda s, sp: pair_in_resync(resync, s, sp)


def _is_plain_m0(resync):
    return isinstance(resync, Resynchronizer) and resync.m == 0


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
        raise ValueError("transducers must share input and output alphabets")
    one_way2 = isinstance(t2, OneWayTransducer)
    idx = MatchIndex(t2) if one_way2 else None
    check = membership or _default_membership(resync)
    plain = membership is None and one_way2 and _is_plain_m0(resync)
    ext = (membership is None and one_way2 and isinstance(resync, ExtendedResynchronizer)
           and resync.m == 0 and resync.n_out == 0)
    shared = _PrefixGammaCache(resync) if plain else None
    state = {"pruned": False, "cex": None}
    pairs = []

    def visit(u, res1):
        state["pruned"] = state["pruned"] or res1.pruned
        graphs = sorted(res1.graphs, key=lambda g: g.sort_key())
        caps2 = caps
        if not one_way2:
            out_cap = max([len(g.output) for g in graphs], default=1)
            caps2 = RunCaps(max(out_cap, 1), caps.max_steps)
        if shared is not None:
            shared.move_to(u)
        for sigma_p in graphs:
            v = sigma_p.output
            matched = None
            if plain or ext:
                org = None
                if plain:
                    org = _find_partner_m0(t2, u, v, (shared.cache, sigma_p.orig, shared.fill),
                                           idx, want_witness=record)
                elif _ext_precheck_m0(resync, sigma_p):
                    org = _find_partner_m0(t2, u, v, _emission_table_ext(resync, sigma_p),
                                           idx, want_witness=record)
                if org is not None:
                    matched = (OriginGraph(u, v, org), ResyncWitness(())) if record else True
            else:
                for cand in _candidate_graphs(t2, u, v, caps2, idx):
                    w = check(cand, sigma_p)
                    if w is not None:
                        matched = (cand, w)
                        break
            if matched is None:
                has_partner = next(_candidate_graphs(t2, u, v, caps2, idx), None)
                reason = "no-accepted-partner" if has_partner is not None else "no-partner"
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

    Iterative deepening on the bound k from start_k: each probe is a DFS
    over the run lattice (emissions ordered by origin displacement) that
    prunes as soon as a positional crossing count exceeds k.  A probe
    succeeding at k succeeds at every larger k, so a caller that only
    needs to know whether the minimum exceeds some bound passes it as
    start_k and pays one probe when it does not.  Structural dead ends (no
    completion regardless of budget) are memoized across probes.  Partners
    are constrained to the exact (u, v), so the search is cap-free.
    Returns math.inf when no partner exists.
    """
    u, v, orig_p = sigma_p.input, sigma_p.output, sigma_p.orig
    n, m = len(u), len(v)
    index = index or MatchIndex(t2)
    exact, lens, pad, sink = index.exact, index.lens, index.pad, index.sink
    readers = index.readers
    rank = {q: r for r, q in enumerate(sorted(t2.states, key=repr))}
    final = t2.final
    dead = set()        # (q, i, j) with no completion at all; probe-independent

    def exists_within(k):
        lr = [set() for _ in range(n + 1)]   # index = position z, 1-based
        rl = [set() for _ in range(n + 1)]

        def emit(h, new):
            added = []
            if h < new:
                for z in range(h, new):
                    s = lr[z]
                    if h not in s:
                        s.add(h)
                        added.append((s, h))
                        if len(s) > k:
                            return added, False
            elif h > new:
                for z in range(new + 1, h + 1):
                    s = rl[z]
                    if h not in s:
                        s.add(h)
                        added.append((s, h))
                        if len(s) > k:
                            return added, False
            return added, True

        def emit_all(origin, j, nj):
            # emissions of output positions j..nj-1 at origin, or None
            # (with nothing left behind) when one breaks the budget
            added = []
            for s in range(j, nj):
                added2, good = emit(origin, orig_p[s])
                added += added2
                if not good:
                    for (z, h) in added:
                        z.discard(h)
                    return None
            return added

        onpath = set()

        def rec(q, i, j):
            # second component: failure independent of path and budget
            if q in final and i == n and j == m:
                return True, True
            if i < n and q not in readers:
                return False, True
            if i == n or q in sink:
                # success-only shortcut: skip the rest of the input silently
                # and pad the remaining output at the last position
                letters = pad.get(q)
                if letters is not None and all(v[s] in letters for s in range(j, m)) \
                        and emit_all(n, j, m) is not None:
                    return True, True
            key = (q, i, j)
            if key in dead:
                return False, True
            if key in onpath:
                return False, False
            onpath.add(key)
            succ = []
            if i < n:
                a = u[i]
                for lo in lens.get((q, a), ()):
                    nj = j + lo
                    if nj > m:
                        break
                    for r in exact.get((q, a, v[j:nj]), ()):
                        cost = sum(abs(i + 1 - orig_p[s]) for s in range(j, nj))
                        succ.append((cost, rank[r], i + 1, nj, i + 1, r))
            origin = i + 1 if i < n else n
            for lo in lens.get((q, EPS), ()):
                nj = j + lo
                if nj > m:
                    break
                for r in exact.get((q, EPS, v[j:nj]), ()):
                    cost = sum(abs(origin - orig_p[s]) for s in range(j, nj))
                    succ.append((cost, rank[r], i, nj, origin, r))
            succ.sort()
            clean = True
            for (_c, _rank, ni, nj, origin, r) in succ:
                added = emit_all(origin, j, nj)
                if added is None:
                    clean = False       # budget prune: not memoizable
                    continue
                found, c = rec(r, ni, nj)
                if found:
                    onpath.discard(key)
                    return True, True
                clean = clean and c
                for (z, h) in added:
                    z.discard(h)
            onpath.discard(key)
            if clean:
                dead.add(key)
            return False, clean

        return any(rec(q, 0, 0)[0] for q in sorted(t2.initial, key=repr))

    for k in range(start_k, n + 1):
        if exists_within(k):
            return k
    return math.inf


def _min_max_traversal_2nt(t2, sigma_p, caps):
    best = math.inf
    res = run_origin_graphs(t2, sigma_p.input, caps)
    for g in res.graphs:
        if g.output == sigma_p.output:
            best = min(best, max_traversal(g, sigma_p))
    return best


@dataclass(frozen=True)
class TraversalProfile:
    values: dict                     # input length -> int or math.inf
    approximate: bool
    max_input_len: int

    def value(self, n):
        return self.values.get(n, 0)

    def strictly_increasing(self, lo, hi):
        vals = [self.values.get(n) for n in range(lo, hi + 1)]
        return all(a is not None and b is not None and a < b for a, b in zip(vals, vals[1:]))

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
        raise ValueError("transducers must share input and output alphabets")
    values = {n: 0 for n in range(1, max_input_len + 1)}
    state = {"pruned": False}
    idx = MatchIndex(t2) if isinstance(t2, OneWayTransducer) else None

    def assess(u, res1):
        n = len(u)
        best = values[n]
        if res1.pruned:
            state["pruned"] = True
        for sigma_p in sorted(res1.graphs, key=lambda g: g.sort_key()):
            if best is math.inf:
                break
            if isinstance(t2, OneWayTransducer):
                val = _min_max_traversal_1nt(t2, sigma_p, start_k=best, index=idx)
            else:
                out_cap = max(len(sigma_p.output), 1)
                val = _min_max_traversal_2nt(t2, sigma_p, RunCaps(out_cap, caps.max_steps))
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


def resync_search(t1, t2, k_max, max_input_len, caps: RunCaps,
                  fast_rk=True, record=False) -> SearchResult:
    """Least k <= k_max with contains_upto(t1, t2, R_k) holding on the sweep.

    Evidence only: a found k certifies the sweep, not the full relation.
    With fast_rk, R_k membership uses the traversal characterization plus
    the greedy witness; otherwise the generic automaton route runs.
    """
    base = tuple(sorted(t1.input_alphabet))
    for k in range(0, k_max + 1):
        membership = rk_membership_via_traversal(k) if fast_rk else None
        verdict = contains_upto(t1, t2, make_Rk(k, base=base), max_input_len, caps,
                                record=record, membership=membership)
        if verdict.holds:
            return SearchResult(True, k, verdict, None)
    profile = traversal_profile(t1, t2, max_input_len, caps)
    return SearchResult(False, None, None, profile)


def report_json(obj) -> str:
    return json.dumps(obj.to_json(), indent=2, sort_keys=True)
