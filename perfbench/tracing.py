"""Spans around origami's public functions, installed from outside.

``Tracer.install`` replaces each wrapped function by a recording wrapper
wherever an origami module has bound it (``from .x import f`` copies the
binding, so the defining module alone is not enough) and replaces the
wrapped methods on their classes.  No file of the package changes.

A span is (name, start, end, parent index).  Spans stay in memory until
``write`` saves them.  A layer's self time is the time of its spans minus
the time of their child spans, so the layers partition the traced time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

perf = time.perf_counter

# Per-layer metrics: name -> (unit, how it is computed).  "self:<span>"
# sums self time of the named spans; "count:<counter>" reads a counter.
LAYER_METRICS = {
    "transducers.sweep_self_s": ("s", "self:transducers.sweep"),
    "transducers.inputs_visited": ("count", "count:transducers.inputs_visited"),
    "transducers.graphs_delivered": ("count", "count:transducers.graphs_delivered"),
    "transducers.run_2nt_s": ("s", "self:transducers.run_2nt"),
    "transducers.run_2nt_calls": ("count", "count:transducers.run_2nt_calls"),
    "transducers.matching_s": ("s", "self:transducers.matching"),
    "containment.visit_s": ("s", "self:containment.visit"),
    "containment.visit_us_per_graph": ("us", None),
    "mso.compile_s": ("s", "self:mso.compile"),
    "automata.determinize_s": ("s", "self:automata.determinize"),
    "automata.minimize_s": ("s", "self:automata.minimize"),
    "automata.gamma_states": ("count", "count:automata.gamma_states"),
    "automata.gamma_transitions": ("count", "count:automata.gamma_transitions"),
    "automata.accepts_s": ("s", "self:automata.accepts"),
    "resync.gamma_dfa_s": ("s", "self:resync.gamma_dfa"),
    "resync.membership_s": ("s", "self:resync.membership"),
    "resync.membership_calls": ("count", "count:resync.membership_calls"),
    "resync.bounded_s": ("s", "self:resync.bounded"),
    "traversal.max_traversal_s": ("s", "self:traversal.max_traversal"),
    "traversal.greedy_label_s": ("s", "self:traversal.greedy_label"),
    "rational.pair_accepts_s": ("s", "self:rational.pair_accepts"),
    "trace.spans": ("count", "count:trace.spans"),
    "trace.overhead_s": ("s", None),
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # indexes of open spans
        self.counts = Counter()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self.stack.pop()
            spans[idx] = (name, start, end, parent)

    def wrap(self, name, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, fn, wrapper):
        """Point every origami module binding of fn at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "origami" or mod_name.startswith("origami.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        from origami import automata, mso, rational, resync, transducers, traversal

        t = self
        counts = self.counts

        # transducers: the prefix-tree sweep and its visitor
        sweep = transducers.sweep_origin_graphs

        def sweep_wrapper(tr, max_len, caps, visit=None):
            if visit is None:
                return t.call("transducers.sweep", sweep, tr, max_len, caps)

            def traced_visit(u, res):
                counts["transducers.inputs_visited"] += 1
                counts["transducers.graphs_delivered"] += len(res.graphs)
                return t.call("containment.visit", visit, u, res)

            return t.call("transducers.sweep", sweep, tr, max_len, caps, traced_visit)

        self._rebind(sweep, sweep_wrapper)

        run = transducers.run_origin_graphs

        def run_wrapper(tr, u, caps, *rest):
            if isinstance(tr, transducers.TwoWayTransducer):
                counts["transducers.run_2nt_calls"] += 1
                return t.call("transducers.run_2nt", run, tr, u, caps, *rest)
            return t.call("transducers.run_1nt", run, tr, u, caps, *rest)

        self._rebind(run, run_wrapper)

        matching = transducers.enumerate_matching_graphs

        def matching_wrapper(*args, **kwargs):
            # a generator: time each step the caller pulls, not its creation
            gen = matching(*args, **kwargs)
            while True:
                try:
                    org = t.call("transducers.matching", next, gen)
                except StopIteration:
                    return
                yield org

        self._rebind(matching, matching_wrapper)

        # mso and automata
        self._rebind(mso.mso_compile, self.wrap("mso.compile", mso.mso_compile))
        nfa = automata.StructuredNfa
        for attr in ("determinize", "minimize", "accepts"):
            self._patch_method(nfa, attr, self.wrap(f"automata.{attr}", getattr(nfa, attr)))

        # resync: first gamma compile per resynchronizer, membership, boundedness
        gamma_dfa = resync.Resynchronizer.gamma_dfa

        def gamma_dfa_wrapper(r):
            if r._dfa is not None:
                return gamma_dfa(r)
            dfa, delta = t.call("resync.gamma_dfa", gamma_dfa, r)
            counts["automata.gamma_states"] += len(dfa.states)
            counts["automata.gamma_transitions"] += len(dfa.transitions)
            return dfa, delta

        self._patch_method(resync.Resynchronizer, "gamma_dfa", gamma_dfa_wrapper)

        member = resync.pair_in_resync

        def member_wrapper(*args, **kwargs):
            counts["resync.membership_calls"] += 1
            return t.call("resync.membership", member, *args, **kwargs)

        self._rebind(member, member_wrapper)
        self._rebind(resync.is_bounded, self.wrap("resync.bounded", resync.is_bounded))
        self._rebind(resync.bounded_by, self.wrap("resync.bounded", resync.bounded_by))

        # traversal and rational membership
        self._rebind(traversal.max_traversal,
                     self.wrap("traversal.max_traversal", traversal.max_traversal))
        self._rebind(traversal.greedy_label,
                     self.wrap("traversal.greedy_label", traversal.greedy_label))
        self._rebind(rational.rational_pair_accepts,
                     self.wrap("rational.pair_accepts", rational.rational_pair_accepts))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- reading -----------------------------------------------------------

    def mark(self):
        """Position to measure from: (span count, counter snapshot)."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since):
        """Per-layer values over the spans and counts recorded since mark."""
        first, counts0 = since
        spans = self.spans[first:]
        total = Counter()
        child = Counter()
        for (name, start, end, parent) in spans:
            dur = end - start
            total[name] += dur
            if parent >= first:
                child[self.spans[parent][0]] += dur
        self_time = {name: total[name] - child[name] for name in total}
        counts = self.counts - counts0
        counts["trace.spans"] = len(spans)
        out = {}
        for metric, (_unit, how) in LAYER_METRICS.items():
            if how is None:
                continue
            kind, key = how.split(":", 1)
            out[metric] = self_time.get(key, 0.0) if kind == "self" else counts.get(key, 0)
        graphs = counts.get("transducers.graphs_delivered", 0)
        out["containment.visit_us_per_graph"] = (
            1e6 * out["containment.visit_s"] / graphs if graphs else 0.0)
        return out

    def write(self, path):
        """Save every span as a tab-separated line: name start end parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for (name, start, end, parent) in self.spans:
                fh.write(f"{name}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\n")
