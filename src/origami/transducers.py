"""One-way and two-way nondeterministic transducers and their origin
semantics.

Origin conventions (1NT): output produced while consuming input letter i
gets origin i; output produced by an epsilon transition gets the position
of the next unconsumed letter, or the last letter once the input is
exhausted.  Two-way outputs get the current head position, which is always
a word position because endmarker transitions must not produce output.

Enumeration is capped by ``RunCaps``; runs exceeding the caps are pruned
silently and the result records that pruning happened, so callers can
tell exhaustive sweeps from sampled ones.

Every table derived from one machine, such as a one-way machine's
``MatchIndex`` or a two-way machine's runs, is kept on that machine
object from the first call that needs it (``_memo``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

EPS = None          # input component of an epsilon transition
LMARK = "<"         # left endmarker of a two-way tape
RMARK = ">"         # right endmarker
LEFT = "L"
RIGHT = "R"


class EmptyInputError(ValueError):
    pass


class TransducerAlphabetError(ValueError):
    pass


def word(letters):
    """Normalize str or iterable input to a tuple of letters."""
    if letters is None:
        return ()
    return tuple(letters)


@dataclass(frozen=True)
class RunCaps:
    max_output_len: int
    max_steps: int

    def __post_init__(self):
        if self.max_output_len <= 0 or self.max_steps <= 0:
            raise ValueError("caps must be strictly positive")


@dataclass(frozen=True, slots=True)
class OriginGraph:
    input: tuple
    output: tuple
    orig: tuple   # 1-based input position per output position

    def __post_init__(self):
        # convert only what is not a tuple yet; the enumerators skip all
        # of this through _graph
        if type(self.input) is not tuple:
            object.__setattr__(self, "input", word(self.input))
        if type(self.output) is not tuple:
            object.__setattr__(self, "output", word(self.output))
        if type(self.orig) is not tuple:
            object.__setattr__(self, "orig", tuple(self.orig))
        n = len(self.input)
        if not n:
            raise EmptyInputError("origin graphs require a non-empty input word")
        if len(self.orig) != len(self.output):
            raise ValueError("orig must assign one input position per output position")
        if self.orig and not (1 <= min(self.orig) and max(self.orig) <= n):
            y = next(y for y in self.orig if not 1 <= y <= n)
            raise ValueError(f"origin {y} out of range 1..{n}")

    def sort_key(self):
        return (self.input, self.output, self.orig)


# the setters of OriginGraph's slots, which its frozen __setattr__ refuses
_SET_INPUT, _SET_OUTPUT, _SET_ORIG = (OriginGraph.__dict__[f].__set__
                                      for f in ("input", "output", "orig"))


def _graph(u, out, org):
    """An OriginGraph on tuples its caller has already checked: u is not
    empty and org gives one position of u per letter of out."""
    g = object.__new__(OriginGraph)
    _SET_INPUT(g, u)
    _SET_OUTPUT(g, out)
    _SET_ORIG(g, org)
    return g


@dataclass(frozen=True)
class OneWayTransducer:
    states: frozenset
    input_alphabet: frozenset
    output_alphabet: frozenset
    transitions: tuple   # (p, letter or EPS, output word tuple, q)
    initial: frozenset
    final: frozenset
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(self.output_alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        states, letters, outputs = self.states, self.input_alphabet, self.output_alphabet
        norm = []
        for t in self.transitions:
            p, a, out, q = t
            if type(t) is not tuple or type(out) is not tuple:
                out = word(out)
                t = (p, a, out, q)
            if a is not EPS and a not in letters:
                raise TransducerAlphabetError(f"input letter {a!r} not in alphabet")
            if not outputs.issuperset(out):
                c = next(c for c in out if c not in outputs)
                raise TransducerAlphabetError(f"output letter {c!r} not in alphabet")
            if p not in states or q not in states:
                raise ValueError(f"transition endpoint outside states: {t}")
            norm.append(t)
        object.__setattr__(self, "transitions", tuple(norm))

    @property
    def kind(self):
        return "1nt"


@dataclass(frozen=True)
class TwoWayTransducer:
    states: frozenset
    input_alphabet: frozenset
    output_alphabet: frozenset
    transitions: tuple   # (p, letter or LMARK/RMARK, output word tuple, LEFT/RIGHT, q)
    initial: frozenset
    final: frozenset
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(self.output_alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        norm = []
        for (p, a, out, d, q) in self.transitions:
            out = word(out)
            if a == LMARK and (d != RIGHT or out):
                raise ValueError("transitions on the left endmarker must move right with empty output")
            if a == RMARK and (d != LEFT or out):
                raise ValueError("transitions on the right endmarker must move left with empty output")
            if a not in (LMARK, RMARK) and a not in self.input_alphabet:
                raise TransducerAlphabetError(f"input letter {a!r} not in alphabet")
            if d not in (LEFT, RIGHT):
                raise ValueError(f"direction must be L or R, got {d!r}")
            for c in out:
                if c not in self.output_alphabet:
                    raise TransducerAlphabetError(f"output letter {c!r} not in alphabet")
            if p not in self.states or q not in self.states:
                raise ValueError(f"transition endpoint outside states: {(p, a, out, d, q)}")
            norm.append((p, a, out, d, q))
        object.__setattr__(self, "transitions", tuple(norm))

    @property
    def kind(self):
        return "2nt"

    def is_deterministic(self):
        seen = set()
        for (p, a, _out, _d, _q) in self.transitions:
            if (p, a) in seen:
                return False
            seen.add((p, a))
        return True


@dataclass(frozen=True, slots=True)
class RunResult:
    graphs: frozenset
    pruned: bool

    def sorted_graphs(self):
        return sorted(self.graphs, key=lambda g: g.sort_key())


def run_origin_graphs(transducer, u, caps: RunCaps) -> RunResult:
    """Enumerate the origin graphs of accepting runs on u, capped.

    Returns graphs deduplicated structurally; two runs with the same
    (input, output, origins) contribute one graph.  An empty u raises
    ``EmptyInputError`` and a letter of u outside the transducer's input
    alphabet ``TransducerAlphabetError``.  A one-way transducer takes the
    steps of ``sweep_origin_graphs`` along u alone, so ``pruned`` reports a
    cap that cuts a run at its least step count.

    A two-way transducer runs once per (u, caps): the result, which is
    frozen, is kept in the transducer's memo (``_memo``), keyed by the
    input tuple and the caps, and every later call with that key returns
    it, so the enumeration, equivalence, containment and profile calls on
    one object share their runs.
    """
    u = _input_word(transducer, u)
    if isinstance(transducer, OneWayTransducer):
        got = []
        _walk(transducer, [(a,) for a in u], caps, lambda _u, res: got.append(res))
        return got[0]
    runs = _memo(transducer, "runs", lambda _t: {})
    key = (u, caps)
    res = runs.get(key)
    if res is None:
        res = runs[key] = _run_2nt(transducer, u, caps)
    return res


def _input_word(t, u):
    """u as a tuple of letters, which must be non-empty and over t's input
    alphabet."""
    u = word(u)
    if not u:
        raise EmptyInputError("input word must be non-empty")
    if not t.input_alphabet.issuperset(u):
        a = next(a for a in u if a not in t.input_alphabet)
        raise TransducerAlphabetError(f"input letter {a!r} not in alphabet")
    return u


def _memo(t, key, build):
    """build(t), made on the first call with key and kept in a dict on the
    machine t: not a field, so equality, hashing and repr do not see it,
    and nothing in it refers back to t, so t is freed with its tables."""
    memo = t.__dict__.get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(t, "_memo", memo)
    got = memo.get(key)
    if got is None:
        got = memo[key] = build(t)
    return got


def _by_key(t):
    """one-way t's ``transition_index``, kept on t."""
    return _memo(t, "by_key", transition_index)


def _index(t):
    """one-way t's ``MatchIndex``, kept on t."""
    return _memo(t, "index", MatchIndex)


def transition_index(t):
    """Buckets keyed (state, input letter) plus (state, EPS)."""
    by_key = {}
    for (p, a, v, q) in t.transitions:
        by_key.setdefault((p, a), []).append((v, q))
    return by_key


def _eps_close(by_key, entries, origin, room):
    """Close entries, one-way configurations (state, output, origins) ->
    step count, under eps moves writing at origin; True when a cap cut a
    move.  room is (most letters the outputs may reach, most steps).  Each
    configuration is expanded once, at its least step count, whatever the
    transition order: entries with an eps move are taken from per-step
    buckets, fewest steps first."""
    buckets = {}
    for key, steps in entries.items():
        if (key[0], EPS) in by_key:
            buckets.setdefault(steps, []).append(key)
    if not buckets:
        return False
    max_out, max_steps = room
    pruned = False
    steps = min(buckets)
    while buckets:
        nsteps = steps + 1
        for key in buckets.pop(steps, ()):
            if entries[key] != steps:
                continue
            if steps >= max_steps:
                pruned = True
                continue
            q, out, org = key
            for (v, r) in by_key[(q, EPS)]:
                if len(out) + len(v) > max_out:
                    pruned = True
                    continue
                nkey = (r, out + v, org + (origin,) * len(v))
                old = entries.get(nkey)
                if old is None or nsteps < old:
                    entries[nkey] = nsteps
                    if (r, EPS) in by_key:
                        buckets.setdefault(nsteps, []).append(nkey)
        steps = nsteps
    return pruned


def _read(by_key, entries, a, origin, room):
    """(the configurations that one read of the letter a reaches from
    entries, each at its least step count, whether a cap cut a move)."""
    max_out, max_steps = room
    nxt = {}
    pruned = False
    for (q, out, org), steps in entries.items():
        batch = by_key.get((q, a))
        if not batch:
            continue
        if steps >= max_steps:
            pruned = True
            continue
        nsteps = steps + 1
        for (v, r) in batch:
            if len(out) + len(v) > max_out:
                pruned = True
                continue
            nkey = (r, out + v, org + (origin,) * len(v))
            old = nxt.get(nkey)
            if old is None or nsteps < old:
                nxt[nkey] = nsteps
    return nxt, pruned


def _walk(t: OneWayTransducer, choices, caps, visit):
    """Run visit(u, RunResult) on every input u with u[i] in choices[i],
    in the order of the choices, sharing run prefixes along the input
    tree: a node closes the runs on its prefix under eps moves, then each
    child reads its letter.  False once visit has returned False."""
    by_key = _by_key(t)
    final = t.final
    n = len(choices)
    room = (caps.max_output_len, caps.max_steps)

    def rec(u, entries, pruned):
        i = len(u)
        pruned = _eps_close(by_key, entries, i + 1 if i < n else n, room) or pruned
        if i == n:
            graphs = frozenset(_graph(u, out, org) for (q, out, org) in entries if q in final)
            return visit(u, RunResult(graphs, pruned)) is not False
        for a in choices[i]:
            nxt, cut = _read(by_key, entries, a, i + 1, room)
            if not rec(u + (a,), nxt, pruned or cut):
                return False
        return True

    return rec((), {(q, (), ()): 0 for q in t.initial}, False)


def _two_way_moves(t: TwoWayTransducer):
    """Two-way t's moves: (state, tape symbol) -> its moves there as
    (output, head step, target), in transition order."""
    moves = {}
    for (p, a, v, d, q) in t.transitions:
        moves.setdefault((p, a), []).append((v, 1 if d == RIGHT else -1, q))
    return moves


def _run_2nt(t: TwoWayTransducer, u, caps):
    """The origin graphs of two-way t on u within caps, breadth first,
    with t's move table, kept on t; the run itself is not looked up in the
    memo (``run_origin_graphs`` does that).

    A configuration is (state, head, output, origins).  Configurations are
    expanded layer by layer, first in, first out, so each one is first
    reached, and expanded once, at its least step count: marking it seen
    never cuts off a run that fits the caps, and ``pruned`` does not
    depend on the transition order.  The output only grows along a run,
    so a run to a configuration that has written c letters passes only
    through configurations with at most c letters; those, and their least
    step counts, are the same under every output cap of at least c.  So
    the graphs with output v are the same under every output cap of at
    least |v|.
    """
    tape = (LMARK,) + u + (RMARK,)
    moves = _memo(t, "moves", _two_way_moves)
    max_out, max_steps = caps.max_output_len, caps.max_steps
    final = t.final
    found = set()
    pruned = False
    layer = [(q, 0, (), ()) for q in sorted(t.initial, key=repr)]
    seen = set(layer)
    steps = 0
    while layer:
        nxt = []
        for (q, pos, out, org) in layer:
            if q in final:
                found.add((out, org))
            batch = moves.get((q, tape[pos]))
            if not batch:
                continue
            if steps >= max_steps:
                pruned = True
                continue
            for (v, d, r) in batch:
                if v:
                    if len(out) + len(v) > max_out:
                        pruned = True
                        continue
                    # endmarker transitions point inward, so the head stays in 0..n+1
                    key = (r, pos + d, out + v, org + (pos,) * len(v))
                else:
                    key = (r, pos + d, out, org)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        layer = nxt
        steps += 1
    return RunResult(frozenset(_graph(u, out, org) for (out, org) in found), pruned)


def words_upto(alphabet, max_len, min_len=1):
    """All words by length then lexicographic order."""
    letters = sorted(alphabet)
    for n in range(min_len, max_len + 1):
        for w in itertools.product(letters, repeat=n):
            yield w


def sweep_origin_graphs(t, max_len, caps: RunCaps, visit=None):
    """Run visit(u, RunResult) on every non-empty input up to max_len.

    Inputs come in ``words_upto`` order, by length then lexicographically,
    and each result equals run_origin_graphs on that input; when visit
    returns False the sweep stops.  A two-way t is run input by input.  A
    one-way t shares its work along the input tree by iterative deepening:
    for each length n the partial runs (deduplicated, each expanded at its
    least step count, so that ``pruned`` does not depend on the transition
    order) are extended down the prefix tree to depth n, and only the
    leaves are visited.  With visit omitted, returns the collected
    (u, RunResult) list instead.
    """
    collected = None
    if visit is None:
        collected = []
        visit = lambda u, res: collected.append((u, res)) or True
    if not isinstance(t, OneWayTransducer):
        for u in words_upto(t.input_alphabet, max_len):
            if visit(u, run_origin_graphs(t, u, caps)) is False:
                break
        return collected
    letters = sorted(t.input_alphabet)
    for n in range(1, max_len + 1):
        if not _walk(t, [letters] * n, caps, visit):
            break
    return collected


def _graph_sets(t, n, caps):
    """The graph sets of t on every input of length n, in ``words_upto``
    order: from one prefix-tree walk to depth n for a one-way t, input by
    input for a two-way t."""
    if not isinstance(t, OneWayTransducer):
        return [run_origin_graphs(t, u, caps).graphs
                for u in words_upto(t.input_alphabet, n, min_len=n)]
    sets = []
    _walk(t, [sorted(t.input_alphabet)] * n, caps, lambda _u, res: sets.append(res.graphs))
    return sets


def classical_pairs(transducer, max_input_len, caps: RunCaps):
    """The input/output relation restricted to inputs up to max_input_len."""
    pairs = set()
    sweep_origin_graphs(transducer, max_input_len, caps,
                        lambda u, res: pairs.update((g.input, g.output) for g in res.graphs))
    return pairs


def origin_equivalent_upto(t1, t2, max_input_len, caps: RunCaps):
    """Setwise comparison of capped origin semantics.

    Returns (True, None) or (False, counterexample) where the counterexample
    is a minimal-input-length graph present in exactly one side (smallest
    by (input, output, orig) among those).  Compares one input length at a
    time; a one-way side is swept (``_graph_sets``).
    """
    if t1.input_alphabet != t2.input_alphabet or t1.output_alphabet != t2.output_alphabet:
        raise TransducerAlphabetError("transducers must share input and output alphabets")
    for n in range(1, max_input_len + 1):
        diff = []
        for g1, g2 in zip(_graph_sets(t1, n, caps), _graph_sets(t2, n, caps)):
            diff.extend(g1 ^ g2)
        if diff:
            return (False, min(diff, key=lambda g: g.sort_key()))
    return (True, None)


# -- output-constrained run search (1NT) ------------------------------------

class MatchIndex:
    """Transitions of a one-way transducer indexed for the search of runs
    that write a given output word: for each (state, input letter or EPS),
    the output lengths in use and a dict from the exact output word to the
    target states, so a lattice node resolves its moves with a handful of
    dict lookups and no scanning.
    """

    __slots__ = ("final", "initial", "exact", "lens", "pad", "sink", "readers")

    def __init__(self, t: OneWayTransducer):
        self.final = t.final
        self.initial = tuple(sorted(t.initial, key=repr))
        self.exact = exact = {}
        for (p, a, out, q) in t.transitions:
            exact.setdefault((p, a, out), []).append(q)
        lens = {}
        for (p, a, out), targets in exact.items():
            lens.setdefault((p, a), set()).add(len(out))
            # targets in the repr order of their transitions, whatever the
            # transition order
            if len(targets) > 1:
                targets.sort(key=lambda q: repr((p, a, out, q)))
        self.lens = {key: sorted(got) for key, got in lens.items()}
        # accepting states able to pad any tail of single eps-emitted
        # letters from a set; lets the search finish long paddings in one scan
        self.pad = {}
        for q in t.final:
            letters = {out[0] for (p, a, out, r) in t.transitions
                       if p == q and a is EPS and len(out) == 1 and r == q}
            if letters:
                self.pad[q] = frozenset(letters)
        # padding states that also read every letter silently in place: a
        # run there can skip the rest of the input and pad at its end
        silent = set(t.transitions)
        self.sink = frozenset(q for q in self.pad
                              if all((q, a, (), q) in silent for a in t.input_alphabet))
        # states from which a run can still read an input letter; a lattice
        # node (q, i, j) with input left over and q outside is a dead end
        readers = {p for (p, a, out, q) in t.transitions if a is not EPS}
        grown = True
        while grown:
            grown = False
            for (p, a, out, q) in t.transitions:
                if a is EPS and q in readers and p not in readers:
                    readers.add(p)
                    grown = True
        self.readers = frozenset(readers)

    def search(self, u, v, allowed=None, each=None):
        """Does some accepting run on u write exactly v and pass the checks?

        Depth first over the run lattice of nodes (q, i, j): state q with i
        letters of u read and j letters of v written.  A move writing
        v[j:nj] at head h (i + 1, or n once u is read) must pass
        ``allowed``, a (cache, keys, fill) table whose answer for output
        position s is cache[(h, keys[s])], filled by fill(h, keys[s]) on a
        miss.  ``each`` receives the origin tuple of every run found,
        repeats included, until it returns true.

        A node with no accepted run below it is not searched again; nodes
        on the path and runs handed to ``each`` keep it searchable.  An
        accepting state that pads the rest of v with eps self-loops
        finishes in one scan, from a sink state without reading the rest
        of u, and a state that can read no more letters is cut while input
        remains.
        """
        n, m = len(u), len(v)
        exact, lens, pad, sink = self.exact, self.lens, self.pad, self.sink
        readers, final = self.readers, self.final
        dead, onpath = set(), set()
        cache, keys, fill = allowed or _NO_TABLE
        cget = cache.get

        def rec(q, i, j, org):
            # 2: stop; 0: no accepted run below, whatever the path; 1:
            # neither.  org is a (rest, head, count) chain, built for each
            if i == n:
                if j == m and q in final:
                    return 2 if each is None or each(_origins(org)) else 1
            elif q not in readers:
                return 0
            if i == n or q in sink:
                letters = pad.get(q)
                if letters is not None:
                    for s in range(j, m):
                        if v[s] not in letters:
                            break
                        if fill is not None:
                            got = cget((n, keys[s]))
                            if got is None:
                                got = fill(n, keys[s])
                            if not got:
                                break
                    else:
                        # the moves below find this run again
                        if each is None or each(_origins((org, n, m - j))):
                            return 2
            key = (q, i, j)
            if key in dead:
                return 0
            if key in onpath:
                return 1
            onpath.add(key)
            live = 0
            for reads in (1, 0):
                if reads:
                    if i == n:
                        continue
                    a, ni, h = u[i], i + 1, i + 1
                else:
                    a, ni, h = EPS, i, (i + 1 if i < n else n)
                for lo in lens.get((q, a), ()):
                    nj = j + lo
                    if nj > m:
                        break
                    batch = exact.get((q, a, v[j:nj]))
                    if not batch:
                        continue
                    norg = org
                    if lo:
                        if fill is not None:
                            ok = True
                            for s in range(j, nj):
                                got = cget((h, keys[s]))
                                if got is None:
                                    got = fill(h, keys[s])
                                if not got:
                                    ok = False
                                    break
                            if not ok:
                                continue
                        if each is not None:
                            norg = (org, h, lo)
                    for r in batch:
                        got = rec(r, ni, nj, norg)
                        if got == 2:
                            return 2
                        live |= got
            onpath.discard(key)
            if not live:
                dead.add(key)
            return live

        for q0 in self.initial:
            if rec(q0, 0, 0, None) == 2:
                return True
        return False


_NO_TABLE = ({}, (), None)


def _origins(chain):
    """The origin tuple of a (rest, head, count) chain."""
    out = ()
    while chain is not None:
        chain, h, count = chain
        out = (h,) * count + out
    return out


def enumerate_matching_graphs(t: OneWayTransducer, u, v):
    """Yield the distinct origin tuples of runs of t on u with output v,
    in the deterministic order of ``MatchIndex.search``; u is checked as
    ``run_origin_graphs`` checks it."""
    u = _input_word(t, u)
    found = {}      # first-found order; setdefault returns False, so the search goes on
    _index(t).search(u, word(v), each=lambda org: found.setdefault(org, False))
    yield from found
