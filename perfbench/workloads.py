"""The four benchmark workloads.

A workload draws its inputs from the seed (``prepare``, untimed), builds
its program objects (``setup``), lists the operations of one pass
(``ops``) and checks one pass's answers (``check``).  An operation is one question a user would ask origami; it
returns the program's own result, and ``digest`` turns that into plain
values outside the timed region.  Resynchronizers are cloned inside each
operation, so every pass pays the first gamma compile as a command-line
run does.

All sizes below are fixed; the seed changes which inputs are drawn and
the order of the operations, never how many there are.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from origami import containment, corpus, mso, rational, reduction, resync, transducers
from origami.transducers import LEFT, LMARK, RIGHT, RMARK, RunCaps, TwoWayTransducer

import oracles

CONTAINS_LEN = 4
CONTAINS_KS = (1, 3, 4, 5)
PROFILE_LEN = {"GROW": 6, "HALT2": 4}


def contains_caps(n):
    # criterion 6's caps, scaled to the sweep length
    return RunCaps(2 + 4 * n, 15 * n)


def profile_caps(n):
    return RunCaps(*oracles.reduction_caps(n))


def fresh(r):
    """An uncompiled copy of a resynchronizer built from a formula."""
    return resync.Resynchronizer(r.params, r.gamma_formula,
                                 base=tuple(sorted(r.base)), name=r.name)


def digest_verdict(v):
    cex = v.counterexample
    if cex is None:
        return (v.status, None)
    s = cex.sigma_p
    return (v.status, (s.input, s.output, s.orig, cex.reason))


class Op:
    __slots__ = ("name", "kind", "run", "digest")

    def __init__(self, name, kind, run, digest=lambda x: x):
        self.name, self.kind, self.run, self.digest = name, kind, run, digest


class Workload:
    name = ""
    kinds = ()            # pass-time breakdown reported for this workload

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        """Draw the seeded inputs; runs once, untimed."""

    def setup(self):
        """Build the program objects; timed, and repeated for setup_s."""
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self, answers):
        """Return (errors, failed operation names)."""
        raise NotImplementedError


# -- reduction-contains ----------------------------------------------------

class ReductionContains(Workload):
    """contains_upto(T_down, T_up, shift(k)) on HALT2's tiles."""

    name = "reduction-contains"
    kinds = ("contains",)
    SAMPLE = 150

    def prepare(self):
        rng = random.Random(self.seed)
        self.order = list(CONTAINS_KS)
        rng.shuffle(self.order)
        letters = [f"t{i}" for i in range(1, 13)]   # HALT2's twelve tiles
        self.sample = sorted({tuple(rng.choice(letters) for _ in range(rng.randint(1, CONTAINS_LEN)))
                              for _ in range(self.SAMPLE)}, key=lambda u: (len(u), u))

    def setup(self):
        tiles = reduction.build_tiles(reduction.halt2())
        self.tdown, self.tup = reduction.build_Tdown(tiles), reduction.build_Tup(tiles)
        base = tuple(sorted(self.tdown.input_alphabet))
        self.shifts = {k: resync.make_shift(k, base=base) for k in CONTAINS_KS}

    def ops(self):
        caps = contains_caps(CONTAINS_LEN)

        def op(k):
            return Op(f"contains shift({k})", "contains",
                      lambda: containment.contains_upto(self.tdown, self.tup, fresh(self.shifts[k]),
                                                        CONTAINS_LEN, caps),
                      digest_verdict)

        return [op(k) for k in self.order]

    def _down_graphs(self, u):
        caps = contains_caps(CONTAINS_LEN)
        return oracles.graphs_1nt(self.tdown, u, caps.max_output_len, caps.max_steps)

    def _all_partnered(self, u, k):
        ok = oracles.shift_window(k)
        return all(oracles.reach_1nt(self.tup, u, out, org, ok)
                   for (out, org) in self._down_graphs(u))

    def check(self, answers):
        errors = []
        got = {k: answers[f"contains shift({k})"] for k in CONTAINS_KS}
        first_fail = {}
        for k, (status, cex) in got.items():
            if status == "holds-on-sweep":
                continue
            if status != "fails" or cex is None:
                errors.append(f"shift({k}): unexpected answer {status}")
                continue
            u, out, org, _reason = cex
            first_fail[k] = (len(u), u)
            if not oracles.reach_1nt(self.tdown, u, out, org, oracles.same_origin):
                errors.append(f"shift({k}): counterexample is not a T_down graph")
            if oracles.reach_1nt(self.tup, u, out, org, oracles.shift_window(k)):
                errors.append(f"shift({k}): the oracle finds a T_up partner for the counterexample")
            letters = sorted(self.tdown.input_alphabet)
            for n in range(1, len(u) + 1):
                for w in itertools.product(letters, repeat=n):
                    if (n, w) >= (len(u), u):
                        break
                    if not self._all_partnered(w, k):
                        errors.append(f"shift({k}): shorter input {w} already fails")
                        break
        ks = sorted(got)
        for a, b in zip(ks, ks[1:]):
            if a not in first_fail and b in first_fail:
                errors.append(f"not monotone: shift({a}) holds, shift({b}) fails")
            if b in first_fail and first_fail[a] > first_fail[b]:
                errors.append(f"shift({a}) fails later than shift({b})")
        for k in CONTAINS_KS:
            for u in self.sample:
                if k in first_fail and (len(u), u) >= first_fail[k]:
                    continue
                if not self._all_partnered(u, k):
                    errors.append(f"shift({k}): sampled input {u} has a graph without a partner")
                    break
        return errors, set()


# -- reduction-profile -----------------------------------------------------

class ReductionProfile(Workload):
    """traversal_profile(T_down, T_up) for GROW and HALT2."""

    name = "reduction-profile"
    kinds = ("profile",)
    SAMPLE = 6   # sampled inputs per machine and length

    def prepare(self):
        rng = random.Random(self.seed)
        self.order = sorted(PROFILE_LEN)
        rng.shuffle(self.order)
        self.sample = {}
        for name, tiles in (("GROW", 5), ("HALT2", 12)):
            letters = [f"t{i}" for i in range(1, tiles + 1)]
            top = min(PROFILE_LEN[name], oracles.PROFILE_CASES[name])
            self.sample[name] = [tuple(rng.choice(letters) for _ in range(n))
                                 for n in range(1, top + 1) for _ in range(self.SAMPLE)]

    def setup(self):
        self.pairs = {}
        self.probe = reduction.tape_probe(reduction.halt2(), 100)
        for name, machine in (("GROW", reduction.grow()), ("HALT2", reduction.halt2())):
            tiles = reduction.build_tiles(machine)
            self.pairs[name] = (reduction.build_Tdown(tiles), reduction.build_Tup(tiles))

    def ops(self):
        def op(name):
            td, tu = self.pairs[name]
            n = PROFILE_LEN[name]
            return Op(f"profile {name}", "profile",
                      lambda: containment.traversal_profile(td, tu, n, profile_caps(n)),
                      lambda p: (tuple(sorted(p.values.items())), p.approximate))

        return [op(name) for name in self.order]

    def check(self, answers):
        expected = json.loads(oracles.EXPECTED.read_text())
        errors = []
        for name, (td, tu) in self.pairs.items():
            values, _approx = answers[f"profile {name}"]
            values = dict(values)
            n_max = PROFILE_LEN[name]
            caps = profile_caps(n_max)
            seq = [values.get(n) for n in range(1, n_max + 1)]
            if not all(isinstance(v, int) for v in seq):
                errors.append(f"{name}: profile not finite: {seq}")
                continue
            if any(a > b for a, b in zip(seq, seq[1:])):
                errors.append(f"{name}: profile decreases: {seq}")
            for n_str, want in expected[name].items():
                n = int(n_str)
                if n > n_max:
                    continue
                if values[n] != want["value"]:
                    errors.append(f"{name}: profile({n}) = {values[n]}, brute force {want['value']}")
                witness = tuple(want["input"])
                live = oracles.profile_value_1nt(td, tu, witness, caps.max_output_len, caps.max_steps)
                if live != want["value"]:
                    errors.append(f"{name}: stored witness for n={n} gives {live}")
            for u in self.sample[name]:
                live = oracles.profile_value_1nt(td, tu, u, caps.max_output_len, caps.max_steps)
                if live > values[len(u)]:
                    errors.append(f"{name}: input {u} needs traversal {live} > profile")
            if name == "HALT2" and max(seq) > self.probe + 2:
                errors.append(f"HALT2: profile {seq} exceeds tape_probe + 2 = {self.probe + 2}")
        return errors, set()


# -- mso-resync ------------------------------------------------------------

# criterion 8's formulas, each with its signature (parameters, then x, y)
CRITERION_8 = [
    ("x = y + 1", ("x", "y")),
    ("y = x + 1", ("x", "y")),
    ("x = y", ("x", "y")),
    ("x <= y", ("x", "y")),
    ("x < y", ("x", "y")),
    ("first(x)", ("x", "y")),
    ("first(x) & last(y)", ("x", "y")),
    ("a(x) | b(y)", ("x", "y")),
    ("(x <= y & (forall z. ((x <= z & z <= y) -> a(z)))"
     " & !(exists w. (x = w + 1 & a(w))) & !(exists w. (w = y + 1 & a(w))))"
     " | (b(x) & x = y)", ("x", "y")),
    ("exists2 X. (x in X & !(y in X))", ("x", "y")),
    ("(x in I & forall w. (w in I -> w = x)) | x = y", ("I", "x", "y")),
    ("x in Right_0 & x < y & forall z. ((x < z & z < y) -> !(z in Right_0))",
     ("Right_0", "Right_1", "x", "y")),
]


class MsoResync(Workload):
    """MSO compilation, automaton word decisions, layered membership and
    boundedness; no transducer."""

    name = "mso-resync"
    kinds = ("compile", "decide_words", "membership", "bounded")
    WORDS = 60          # extended words per compiled formula
    PAIRS = 40          # origin-graph pairs per R_k
    RK = (1, 2, 3)

    def prepare(self):
        rng = random.Random(self.seed)
        self.words = {name: [self._word(rng, sig) for _ in range(self.WORDS)]
                      for name, sig in self.signatures().items()}
        self.raw_pairs = {}
        for k in self.RK:
            pairs = []
            for _ in range(self.PAIRS):
                n, m = rng.randint(1, 6), rng.randint(1, 6)
                u = "".join(rng.choice("ab") for _ in range(n))
                v = "".join(rng.choice("cd") for _ in range(m))
                pairs.append((u, v, tuple(rng.randint(1, n) for _ in range(m)),
                              tuple(rng.randint(1, n) for _ in range(m))))
            self.raw_pairs[f"R_{k}"] = pairs

    def signatures(self):
        sigs = {f"R_{k}": resync.rk_param_names(k) + ("x", "y") for k in self.RK}
        sigs.update({"block": ("x", "y"), "param-example": ("I", "x", "y"), "shift(3)": ("x", "y")})
        sigs.update({f"c8-{i}": sig for i, (_text, sig) in enumerate(CRITERION_8)})
        return sigs

    def setup(self):
        ab = ("a", "b")
        corpus_ = [(f"R_{k}", resync.make_Rk(k, base=ab)) for k in self.RK]
        corpus_ += [("block", resync.make_block(ab)),
                    ("param-example", resync.make_param_example(ab)),
                    ("shift(3)", resync.make_shift(3, ab))]
        for i, (text, sig) in enumerate(CRITERION_8):
            corpus_.append((f"c8-{i}", resync.Resynchronizer(sig[:-2], mso.parse_formula(text),
                                                             base=ab, name=text)))
        self.corpus = dict(corpus_)
        self.builders = {
            "identity": resync.make_identity(ab),
            "universal": resync.make_universal(ab),
            "pm1": resync.make_pm1(ab),
            "shift(3)": resync.make_shift(3, ab),
            "R_2": resync.make_Rk(2, base=ab),
            "param-example": resync.make_param_example(ab),
            "first-to-last": resync.simplify_extended(resync.make_first_to_last()),
            "block": resync.make_block(ab),
            "first": resync.make_first(ab),
        }
        self.pairs = {name: [(transducers.OriginGraph(u, v, o1), transducers.OriginGraph(u, v, o2))
                             for (u, v, o1, o2) in raw]
                      for name, raw in self.raw_pairs.items()}

    @staticmethod
    def _word(rng, sig):
        # first-order tracks mostly carry exactly one mark, so most words
        # reach gamma's real decisions instead of the one-mark filter
        n = rng.randint(0, 6)
        cols = []
        for v in sig:
            if not mso.is_second_order(v) and n and rng.random() < 0.85:
                p = rng.randrange(n)
                cols.append([1 if i == p else 0 for i in range(n)])
            else:
                cols.append([rng.randint(0, 1) for _ in range(n)])
        return tuple((rng.choice("ab"), tuple(c[i] for c in cols)) for i in range(n))

    def ops(self):
        compiled = {}
        ops = []

        def compile_op(name):
            def run():
                r = compiled[name] = fresh(self.corpus[name])
                return r.gamma_dfa()[0]
            return Op(f"compile {name}", "compile", run,
                      lambda d: (len(d.states), len(d.transitions)))

        def words_op(name):
            def run():
                dfa = compiled[name].gamma_dfa()[0]
                return tuple(dfa.accepts(w) for w in self.words[name])
            return Op(f"words {name}", "decide_words", run)

        def member_op(name):
            def run():
                r = compiled[name]
                return tuple(resync.pair_in_resync(r, s, sp) for (s, sp) in self.pairs[name])
            return Op(f"membership {name}", "membership", run,
                      lambda ws: tuple(None if w is None else w.params for w in ws))

        def bounded_op(name):
            def run():
                r = fresh(self.builders[name])
                d, _ = r.gamma_dfa()
                big = resync.bounded_by(r, 2 * len(d.states) + 1, 6 if r.m <= 1 else 5)
                small = tuple(resync.bounded_by(r, kk, kk + 2) for kk in range(4))
                return resync.is_bounded(r).bounded, big, small
            return Op(f"bounded {name}", "bounded", run)

        ops += [compile_op(name) for name in self.corpus]
        ops += [words_op(name) for name in self.corpus]
        ops += [member_op(f"R_{k}") for k in self.RK]
        ops += [bounded_op(name) for name in self.builders]
        return ops

    def check(self, answers):
        errors = []
        for name, r in self.corpus.items():
            if r.signature != self.signatures()[name]:
                errors.append(f"{name}: signature {r.signature} does not fit the drawn words")
                continue
            got = answers[f"words {name}"]
            for w, ans in zip(self.words[name], got):
                if ans != mso.evaluate_extended(r.gamma_formula, w, r.signature):
                    errors.append(f"{name}: automaton and evaluator disagree on {w}")
                    break
        for k in self.RK:
            got = answers[f"membership R_{k}"]
            for (s, sp), w in zip(self.pairs[f"R_{k}"], got):
                want = oracles.traversal(s.orig, sp.orig, len(s.input)) <= k
                if (w is not None) != want:
                    errors.append(f"R_{k}: membership {w is not None} for a pair of traversal "
                                  f"{oracles.traversal(s.orig, sp.orig, len(s.input))}")
                    break
        for name in self.builders:
            bounded, big, small = answers[f"bounded {name}"]
            if bounded != (name != "universal"):
                errors.append(f"{name}: is_bounded says {bounded}")
            if name == "universal":
                for kk, viol in enumerate(small):
                    # the universal gamma accepts every source, so every
                    # position of the word must be reported
                    if viol is None or viol.sources != tuple(range(1, len(viol.word) + 1)) \
                            or len(viol.sources) <= kk:
                        errors.append(f"universal: bounded_by({kk}) gave {viol}")
            elif big is not None:
                errors.append(f"{name}: bounded_by finds {big}")
        errors += self._sources_by_definition()
        return errors, set()

    def _sources_by_definition(self):
        """Count sources per target with the naive evaluator on every
        parameterless builder: only the universal count grows with n."""
        errors = []
        for name, r in self.builders.items():
            if r.m or r.gamma_formula is None:
                continue
            most = []
            for n in (4, 5):
                best = 0
                for u in itertools.product("ab", repeat=n):
                    for y in range(1, n + 1):
                        best = max(best, sum(mso.evaluate(r.gamma_formula, u, {"x": x, "y": y})
                                             for x in range(1, n + 1)))
                most.append(best)
            if (most[1] > most[0]) != (name == "universal"):
                errors.append(f"{name}: most sources per target at n = 4, 5: {most}")
        return errors


# -- per-input -------------------------------------------------------------

RAND_STATES = 4
RAND_LEN = 4
RAND_OUT = 4
# Longest possible depth-first path of the two-way enumerator: it never
# expands a configuration (state, head, output, origins) twice, and there
# are at most |Q| (n + 2) sum_{l <= out} (2 n)^l of them.  A step cap above
# that never cuts a run, so the seen-set fault cannot show on these
# machines (the repro operation shows it on every pass instead).
RAND_STEPS = 1 + RAND_STATES * (RAND_LEN + 2) * sum((2 * RAND_LEN) ** i for i in range(RAND_OUT + 1))
RAND_CAPS = RunCaps(RAND_OUT, RAND_STEPS)
RAND_INPUTS = [w for n in range(1, RAND_LEN + 1) for w in itertools.product("ab", repeat=n)]
# Machines are drawn until their size, the sum over inputs of the squared
# number of origin graphs, falls in this band: the per-input sweeps cost
# about that much, so every seed gives a pass of about the same size.
SIZE_BAND = (600, 1800)
FIXED_SEED = 0          # the fixed part of the machine corpus
FIXED_MACHINES = 18
SEEDED_MACHINES = 6
IDREV_LEN = 6
IDREV_CAPS = RunCaps(2 * IDREV_LEN, 4 * IDREV_LEN + 4)
RATIONAL_LEN = 3
RATIONAL_CAPS = RunCaps(3, 40)


def random_2nt(rng, name):
    """A nondeterministic two-way transducer over {a, b} with RAND_STATES
    states; every state has a move on each endmarker."""
    states = [f"s{i}" for i in range(RAND_STATES)]
    trans = []
    for p in states:
        trans.append((p, LMARK, (), RIGHT, rng.choice(states)))
        trans.append((p, RMARK, (), LEFT, rng.choice(states)))
        for a in "ab":
            for _ in range(rng.choice((1, 1, 2))):
                out = tuple(rng.choice("ab") for _ in range(rng.choice((0, 1, 1, 2))))
                trans.append((p, a, out, rng.choice((LEFT, RIGHT)), rng.choice(states)))
    final = {s for s in states[1:] if rng.random() < 0.6} or {states[-1]}
    return TwoWayTransducer(set(states), {"a", "b"}, {"a", "b"}, tuple(trans), {"s0"}, final,
                            name=name)


def draw_machines(rng, count, prefix, cache):
    """count random machines in the size band; the oracle's graph sets of
    the machines kept go into cache, keyed like PerInput.graphs."""
    out = []
    while len(out) < count:
        t = random_2nt(rng, f"{prefix}{len(out)}")
        found = {u: oracles.graphs_2nt(t, u, RAND_OUT, RAND_STEPS) for u in RAND_INPUTS}
        if SIZE_BAND[0] <= sum(len(g) ** 2 for g in found.values()) <= SIZE_BAND[1]:
            cache.update(((t.name, u, RAND_CAPS), g) for u, g in found.items())
            out.append(t)
    return out


def rebuild(t):
    return TwoWayTransducer(t.states, t.input_alphabet, t.output_alphabet, t.transitions,
                            t.initial, t.final, name=t.name)


def renamed(t, rng):
    """t with states renamed and transitions reordered."""
    names = {q: f"r{i}" for i, q in enumerate(sorted(t.states))}
    trans = [(names[p], a, out, d, names[q]) for (p, a, out, d, q) in t.transitions]
    rng.shuffle(trans)
    return TwoWayTransducer({names[q] for q in t.states}, t.input_alphabet, t.output_alphabet,
                            tuple(trans), {names[q] for q in t.initial},
                            {names[q] for q in t.final}, name=t.name + "-renamed")


def seen_set_repro():
    """The two-way enumerator's seen-set fault on input "a".

    From p0, the transition to r is listed after the one to q, so the
    depth-first search takes it first: r turns on ">" to s, and s moves
    back right to q two steps later than the direct move.  The only run
    (via the direct move) needs 5 steps; the detour reaches q's
    configuration first and marks it seen, then is cut by the step cap.
    """
    trans = (("i", LMARK, (), RIGHT, "p0"),
             ("p0", "a", (), RIGHT, "q"),
             ("p0", "a", (), RIGHT, "r"),
             ("r", RMARK, (), LEFT, "s"),
             ("s", "a", (), RIGHT, "q"),
             ("q", RMARK, (), LEFT, "t1"),
             ("t1", "a", ("a",), RIGHT, "t2"),
             ("t2", RMARK, (), LEFT, "f"))
    states = {"i", "p0", "q", "r", "s", "t1", "t2", "f"}
    return TwoWayTransducer(states, {"a"}, {"a"}, trans, {"i"}, {"f"}, name="seen-set repro")


REPRO_CAPS = RunCaps(3, 5)
REPRO_OP = "enumerate seen-set repro"


def digest_graphs(res):
    return (tuple(sorted((g.output, g.orig) for g in res.graphs)), res.pruned)


class PerInput(Workload):
    """Input-by-input sweeps: two-way enumeration, equivalence,
    containment, profiles, and the rational driver."""

    name = "per-input"
    kinds = ("enumerate", "equiv", "contains", "profile")
    known_faults = (REPRO_OP,)    # fail on every pass; counted in `failed`

    def prepare(self):
        self._graphs = {}
        self.drawn = (draw_machines(random.Random(FIXED_SEED), FIXED_MACHINES, "fixed", self._graphs)
                      + draw_machines(random.Random(self.seed), SEEDED_MACHINES, "seeded",
                                      self._graphs))

    def graphs(self, t, u, caps):
        """The oracle's graph set of t on u, cached by machine name."""
        key = (t.name, tuple(u), caps)
        if key not in self._graphs:
            self._graphs[key] = oracles.graphs_2nt(t, u, caps.max_output_len, caps.max_steps)
        return self._graphs[key]

    def setup(self):
        self.rand = [rebuild(t) for t in self.drawn]
        self.twin = renamed(self.rand[0], random.Random(self.seed))
        # consecutive machines of the fixed part, then of the seeded part
        self.pairs = [(a, b) for a, b in zip(self.rand, self.rand[1:])
                      if a.name[:5] == b.name[:5]]
        self.t_id, self.t_rev = corpus.t_id(), corpus.t_rev()
        self.repro = seen_set_repro()
        self.ident_ab = resync.make_identity(("a", "b"))
        self.ident_a = resync.make_identity(("a",))
        self.t_first, self.t_last = corpus.t_first(), corpus.t_last()
        sig, gam = ("a", "b"), ("c", "d")
        self.rat = {"identity": rational.make_rational_identity(sig, gam),
                    "shift(1)": rational.make_rational_shift(1, sig, gam)}
        self.rational_cases = ((self.t_first, self.t_first, "identity"),
                               (self.t_last, self.t_last, "identity"),
                               (self.t_first, self.t_last, "shift(1)"),
                               (self.t_last, self.t_first, "shift(1)"))

    def ops(self):
        ops = []
        for t in self.rand:
            for u in RAND_INPUTS:
                ops.append(Op(f"enumerate {t.name} {''.join(u)}", "enumerate",
                              lambda t=t, u=u: transducers.run_origin_graphs(t, u, RAND_CAPS),
                              digest_graphs))
        for t in (self.t_id, self.t_rev):
            for n in range(1, IDREV_LEN + 1):
                ops.append(Op(f"enumerate {t.name} a^{n}", "enumerate",
                              lambda t=t, n=n: transducers.run_origin_graphs(t, "a" * n, IDREV_CAPS),
                              digest_graphs))
        ops.append(Op(REPRO_OP, "enumerate",
                      lambda: transducers.run_origin_graphs(self.repro, "a", REPRO_CAPS),
                      digest_graphs))

        def equiv(t1, t2, n, c):
            return Op(f"equiv {t1.name} {t2.name}", "equiv",
                      lambda: transducers.origin_equivalent_upto(t1, t2, n, c),
                      lambda r: (r[0], None if r[1] is None else r[1].sort_key()))

        for t1, t2 in self.pairs:
            ops.append(equiv(t1, t2, RAND_LEN, RAND_CAPS))
        ops.append(equiv(self.rand[0], self.twin, RAND_LEN, RAND_CAPS))
        ops.append(equiv(self.t_id, self.t_rev, IDREV_LEN, IDREV_CAPS))

        def contains(t1, t2, r, n, c):
            return Op(f"contains {t1.name} {t2.name} {r.name}", "contains",
                      lambda: containment.contains_upto(t1, t2, r, n, c), digest_verdict)

        for t in self.rand:
            ops.append(contains(t, t, self.ident_ab, RAND_LEN, RAND_CAPS))
        for t1, t2 in self.pairs:
            ops.append(contains(t1, t2, self.ident_ab, RAND_LEN, RAND_CAPS))
        ops.append(contains(self.t_rev, self.t_id, self.ident_a, IDREV_LEN, IDREV_CAPS))
        ops.append(Op("search T_id T_rev", "contains",
                      lambda: containment.resync_search(self.t_id, self.t_rev, 3, 5, IDREV_CAPS),
                      lambda s: (s.found, s.k)))
        for (t1, t2, r) in self.rational_cases:
            ops.append(Op(f"rational {t1.name} {t2.name} {r}", "contains",
                          lambda t1=t1, t2=t2, r=r: rational.contains_upto_rational(
                              t1, t2, self.rat[r], RATIONAL_LEN, RATIONAL_CAPS),
                          digest_verdict))

        def profile(t1, t2, n, c):
            return Op(f"profile {t1.name} {t2.name}", "profile",
                      lambda: containment.traversal_profile(t1, t2, n, c),
                      lambda p: tuple(sorted(p.values.items())))

        ops.append(profile(self.t_id, self.t_rev, IDREV_LEN, IDREV_CAPS))
        for t1, t2 in self.pairs:
            ops.append(profile(t1, t2, RAND_LEN, RAND_CAPS))
        return ops

    # -- checks ------------------------------------------------------------

    def check(self, answers):
        errors, failed = [], set()
        graphs = self.graphs

        def words(alphabet, n):
            return [w for k in range(1, n + 1) for w in itertools.product(sorted(alphabet), repeat=k)]

        def enum_check(name, t, u, c):
            got = set(answers[name][0])
            if got != graphs(t, u, c):
                if name in self.known_faults:
                    failed.add(name)
                else:
                    errors.append(f"{name}: {len(got)} graphs, oracle {len(graphs(t, u, c))}")

        for t in self.rand:
            for u in RAND_INPUTS:
                enum_check(f"enumerate {t.name} {''.join(u)}", t, u, RAND_CAPS)
        for t in (self.t_id, self.t_rev):
            for n in range(1, IDREV_LEN + 1):
                enum_check(f"enumerate {t.name} a^{n}", t, ("a",) * n, IDREV_CAPS)
        enum_check(REPRO_OP, self.repro, ("a",), REPRO_CAPS)

        def equiv_want(t1, t2, n, c):
            for k in range(1, n + 1):
                diff = [(u,) + g for u in itertools.product(sorted(t1.input_alphabet), repeat=k)
                        for g in graphs(t1, u, c) ^ graphs(t2, u, c)]
                if diff:
                    return (False, min(diff))
            return (True, None)

        for t1, t2, n, c in ([(a, b, RAND_LEN, RAND_CAPS) for a, b in self.pairs]
                             + [(self.rand[0], self.twin, RAND_LEN, RAND_CAPS),
                                (self.t_id, self.t_rev, IDREV_LEN, IDREV_CAPS)]):
            name = f"equiv {t1.name} {t2.name}"
            if answers[name] != equiv_want(t1, t2, n, c):
                errors.append(f"{name}: {answers[name]}, oracle {equiv_want(t1, t2, n, c)}")
        if answers[f"equiv {self.rand[0].name} {self.twin.name}"][0] is not True:
            errors.append("renaming states and reordering transitions changed the graphs")

        def identity_want(t1, t2, n, c):
            # identity needs a partner with the same output and origins;
            # the partner's output cap is the longest output of t1 on u
            for u in words(t1.input_alphabet, n):
                g1 = sorted(graphs(t1, u, c))
                if not g1:
                    continue
                g2 = graphs(t2, u, RunCaps(max(1, max(len(o) for o, _ in g1)), c.max_steps))
                for (out, org) in g1:
                    if (out, org) not in g2:
                        reason = ("no-accepted-partner" if any(o == out for o, _ in g2)
                                  else "no-partner")
                        return ("fails", (u, out, org, reason))
            return ("holds-on-sweep", None)

        cases = [(t, t, self.ident_ab, RAND_LEN, RAND_CAPS) for t in self.rand]
        cases += [(a, b, self.ident_ab, RAND_LEN, RAND_CAPS) for a, b in self.pairs]
        cases += [(self.t_rev, self.t_id, self.ident_a, IDREV_LEN, IDREV_CAPS)]
        for t1, t2, r, n, c in cases:
            name = f"contains {t1.name} {t2.name} {r.name}"
            want = identity_want(t1, t2, n, c)
            if answers[name] != want:
                errors.append(f"{name}: {answers[name]}, oracle {want}")
            if t1 is t2 and answers[name][0] != "holds-on-sweep":
                errors.append(f"{name}: containment up to identity is not reflexive")

        def least_traversal(t1, t2, u, c):
            # per t1 graph on u, the least traversal over t2 partners with
            # the same output (math.inf without one); the largest of these
            worst = 0
            for (out, org) in graphs(t1, u, c):
                partners = graphs(t2, u, RunCaps(max(1, len(out)), c.max_steps))
                worst = max(worst, min((oracles.traversal(o2, org, len(u))
                                        for (out2, o2) in partners if out2 == out),
                                       default=math.inf))
            return worst

        want_k = max(least_traversal(self.t_id, self.t_rev, ("a",) * n, IDREV_CAPS)
                     for n in range(1, 6))
        if answers["search T_id T_rev"] != (True, want_k):
            errors.append(f"search T_id T_rev: {answers['search T_id T_rev']}, oracle k = {want_k}")

        for (t1, t2, r) in self.rational_cases:
            name = f"rational {t1.name} {t2.name} {r}"
            ok = oracles.same_origin if r == "identity" else oracles.shift_window(1)
            want = ("holds-on-sweep", None)
            for u in words(t1.input_alphabet, RATIONAL_LEN):
                bad = [(out, org) for (out, org) in
                       sorted(oracles.graphs_1nt(t1, u, RATIONAL_CAPS.max_output_len,
                                                 RATIONAL_CAPS.max_steps))
                       if not oracles.reach_1nt(t2, u, out, org, ok)]
                if bad:
                    want = ("fails", (u,) + bad[0])
                    break
            got = answers[name]
            if (got[0], got[1] and got[1][:3]) != want:
                errors.append(f"{name}: {got}, oracle {want}")

        got = answers[f"profile {self.t_id.name} {self.t_rev.name}"]
        if got != tuple((n, n // 2) for n in range(1, IDREV_LEN + 1)):
            errors.append(f"id/rev profile {got}, expected floor(n/2)")
        for t1, t2 in self.pairs:
            name = f"profile {t1.name} {t2.name}"
            want = tuple((k, max(least_traversal(t1, t2, u, RAND_CAPS)
                                 for u in itertools.product("ab", repeat=k)))
                         for k in range(1, RAND_LEN + 1))
            if answers[name] != want:
                errors.append(f"{name}: {answers[name]}, oracle {want}")
        return errors, failed


WORKLOADS = {w.name: w for w in (ReductionContains, ReductionProfile, MsoResync, PerInput)}
