"""Random small one-way transducers for the differential and metamorphic
properties of the run enumeration and the partner search, the per-input
run oracle and the brute-force partner oracle.

``fifo_run_graphs`` follows the runs on one input first in, first out,
with a seen set: every move takes one step, so a configuration is first
met at its least step count, and the caps cut exactly the runs that do
not fit them.  It shares no code with ``run_origin_graphs`` and
``sweep_origin_graphs``.

``partners`` runs ``run_origin_graphs``, which shares no code with
``MatchIndex.search``, on t2 restricted to runs that write a prefix of v.
A run that meets a lattice node (q, i, j) twice reads and writes nothing
in between, so dropping the loop keeps its origins: every distinct origin
tuple belongs to a run along a simple path of the lattice.  Such a path
makes at most n + m moves that read or write and at most |Q| - 1 moves in
each of the n + m + 1 blocks between them, so the step cap (n + m + 1)|Q|
admits every one.
"""

from collections import deque

from hypothesis import strategies as st

from origami.transducers import (EPS, OneWayTransducer, OriginGraph, RunCaps, RunResult,
                                 run_origin_graphs)

STATES = ("p", "q", "r")
SIX_STATES = STATES + ("s", "t", "w")
LETTERS = ("a", "b")


def fifo_run_graphs(t, u, caps):
    """The RunResult of one-way t on u, one configuration at a time."""
    u, n = tuple(u), len(u)
    moves = {}
    for (p, a, out, q) in t.transitions:
        moves.setdefault((p, a), []).append((out, q))
    graphs, pruned = set(), False
    queue = deque((q, 0, (), (), 0) for q in t.initial)
    seen = set()
    while queue:
        q, i, out, org, steps = queue.popleft()
        if (q, i, out, org) in seen:
            continue
        seen.add((q, i, out, org))
        if i == n and q in t.final:
            graphs.add(OriginGraph(u, out, org))
        # reads move the head to i + 1; eps outputs take the next position
        batches = [(i + 1, i + 1, moves.get((q, u[i]), ()))] if i < n else []
        batches.append((i, min(i + 1, n), moves.get((q, EPS), ())))
        for (ni, origin, batch) in batches:
            for (v, r) in batch:
                if steps >= caps.max_steps or len(out) + len(v) > caps.max_output_len:
                    pruned = True
                    continue
                queue.append((r, ni, out + v, org + (origin,) * len(v), steps + 1))
    return RunResult(frozenset(graphs), pruned)


def stale_step_repro(order=range(7)):
    """p reads x into p0, which reaches r by eps moves through a and b or
    through c alone; r moves to s.  Nothing writes.  Under RunCaps(3, 4)
    the only run on x takes the path through c, 4 steps, and no run is
    cut; the path through a and b reaches r at step 4 and must not cut
    r's move.  ``order`` lists the transitions by their index here."""
    trans = (("p", "x", (), "p0"), ("p0", EPS, (), "a"), ("a", EPS, (), "b"),
             ("b", EPS, (), "r"), ("p0", EPS, (), "c"), ("c", EPS, (), "r"),
             ("r", EPS, (), "s"))
    return OneWayTransducer({"p", "p0", "a", "b", "c", "r", "s"}, {"x"}, {"x"},
                            tuple(trans[i] for i in order), {"p"}, {"s"})


def partners(t2, u, v):
    """Origin tuples of t2's runs on u writing v, by brute force."""
    v, m = tuple(v), len(v)
    trans = [((p, j), a, out, (q, j + len(out)))
             for (p, a, out, q) in t2.transitions for j in range(m + 1)
             if v[j:j + len(out)] == out and j + len(out) <= m]
    written = OneWayTransducer({(q, j) for q in t2.states for j in range(m + 1)},
                               t2.input_alphabet, t2.output_alphabet, trans,
                               {(q, 0) for q in t2.initial}, {(q, m) for q in t2.final})
    caps = RunCaps(max(m, 1), (len(u) + m + 1) * len(t2.states))
    return {g.orig for g in run_origin_graphs(written, u, caps).graphs}


@st.composite
def one_way_machines(draw, outputs=LETTERS, cycle=True, states=STATES):
    """A random one-way machine from {a, b} to the output letters, with
    eps moves, on the given states; the first is initial.

    Moves that read nothing and write nothing come only as the cycle
    between the first two states, so that the oracle's runs stay few.  An
    accepting state often pads with eps self-loops and sometimes reads
    every letter in place, so the search's pad and sink shortcuts fire.
    """
    state = st.sampled_from(states)
    written = st.sampled_from([(c,) for c in outputs] + [(c, d) for c in outputs for d in outputs])
    trans = set()
    for _ in range(draw(st.integers(4, 4 * len(states)))):
        a = draw(st.sampled_from(LETTERS + (EPS,)))
        out = draw(written) if a is EPS or draw(st.booleans()) else ()
        trans.add((draw(state), a, out, draw(state)))
    if cycle and draw(st.booleans()):
        trans |= {(states[0], EPS, (), states[1]), (states[1], EPS, (), states[0])}
    final = set(draw(st.lists(state, min_size=1, max_size=3)))
    f = min(final)
    if draw(st.booleans()):
        trans |= {(f, EPS, (c,), f) for c in draw(st.lists(st.sampled_from(outputs), min_size=1))}
        if draw(st.booleans()):
            trans |= {(f, c, (), f) for c in LETTERS}
    return OneWayTransducer(states, LETTERS, outputs, tuple(sorted(trans, key=repr)),
                            {states[0]}, final)


@st.composite
def machine_pairs(draw, cycle=True):
    """(t1, t2) writing only the letter a, so that a graph of t1 often has
    partners in t2 that differ from it in their origins alone.  Half the
    time t2 can also read the whole input in p and then write any number
    of a's at the last position from the accepting state r: every output
    of t1 then has a partner, and the resynchronizer decides."""
    t1, t2 = draw(one_way_machines(("a",), cycle)), draw(one_way_machines(("a",), cycle))
    if draw(st.booleans()):
        late = {("p", c, (), "p") for c in LETTERS} | {("p", EPS, (), "r"), ("r", EPS, ("a",), "r")}
        t2 = OneWayTransducer(STATES, LETTERS, ("a",),
                              tuple(sorted(set(t2.transitions) | late, key=repr)),
                              t2.initial, t2.final | {"r"})
    return t1, t2


@st.composite
def variants(draw, t):
    """t with its transitions reversed, shuffled, and with its states
    renamed by a random permutation."""
    names = sorted(t.states)
    perm = dict(zip(names, draw(st.permutations(names))))
    shuffled = draw(st.permutations(t.transitions))
    renamed = tuple((perm[p], a, out, perm[q]) for (p, a, out, q) in t.transitions)
    return [t,
            OneWayTransducer(t.states, t.input_alphabet, t.output_alphabet,
                             t.transitions[::-1], t.initial, t.final),
            OneWayTransducer(t.states, t.input_alphabet, t.output_alphabet,
                             tuple(shuffled), t.initial, t.final),
            OneWayTransducer(t.states, t.input_alphabet, t.output_alphabet, renamed,
                             {perm[q] for q in t.initial}, {perm[q] for q in t.final})]

