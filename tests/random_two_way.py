"""Random small two-way transducers, equal copies of a transducer, and the
every-path enumeration oracle.

``every_run_graphs`` follows every run path of a two-way machine, with no
seen set, until the step cap; it shares no code with ``_run_2nt``.  Runs
that reach one configuration by different paths are all followed, so the
oracle is exponential in the step cap and suits small caps only.
"""

from hypothesis import strategies as st

from origami.transducers import LMARK, RMARK, LEFT, RIGHT, OriginGraph, TwoWayTransducer

STATES_2NT = ("p", "q", "r", "s")


@st.composite
def two_way_machines(draw, written=(("a",), ("b",))):
    """A random two-way machine over {a, b}, dense enough for runs to meet
    again at a configuration, as three copies: transitions sorted, reversed
    and shuffled.  A move writes nothing or one of the written words."""
    state = st.sampled_from(STATES_2NT)
    trans = {("p", LMARK, (), RIGHT, draw(state))}
    for _ in range(draw(st.integers(10, 20))):
        p, q = draw(state), draw(state)
        a = draw(st.sampled_from(("a", "b", "a", "b", LMARK, RMARK)))
        if a == LMARK:
            trans.add((p, a, (), RIGHT, q))
        elif a == RMARK:
            trans.add((p, a, (), LEFT, q))
        else:
            out = draw(st.sampled_from(((), (), ()) + written))
            trans.add((p, a, out, draw(st.sampled_from((LEFT, RIGHT))), q))
    trans = sorted(trans)
    final = {draw(state)}
    orders = (trans, trans[::-1], draw(st.permutations(trans)))
    return [TwoWayTransducer(STATES_2NT, {"a", "b"}, {"a", "b"}, tr, {"p"}, final)
            for tr in orders]


# x reads to the right end; then y and z write one a at the last position
# per lap, two steps a lap
LATE = (("p", LMARK, (), RIGHT, "x"), ("x", "a", (), RIGHT, "x"), ("x", "b", (), RIGHT, "x"),
        ("x", RMARK, (), LEFT, "y"), ("y", "a", ("a",), RIGHT, "z"),
        ("y", "b", ("a",), RIGHT, "z"), ("z", RMARK, (), LEFT, "y"))


@st.composite
def two_way_pairs(draw):
    """(t1, t2) from two random machines m1 and m2 that write only a's:
    (m1, m2), or m1 and their union in either order.  Half the time t2
    can also write any number of a's at the last position.  Graphs then
    often share their words and differ in their origins alone, and under
    the union every graph of m1 has itself as a partner."""
    m1, m2 = (draw(two_way_machines((("a",),)))[0] for _ in range(2))
    both = TwoWayTransducer(STATES_2NT, {"a", "b"}, {"a", "b"},
                            tuple(sorted(set(m1.transitions) | set(m2.transitions))),
                            {"p"}, m1.final | m2.final)
    t1, t2 = draw(st.sampled_from(((m1, m2), (m1, both), (both, m1))))
    if not draw(st.booleans()):
        t2 = TwoWayTransducer(STATES_2NT + ("x", "y", "z"), {"a", "b"}, {"a", "b"},
                              tuple(sorted(set(t2.transitions) | set(LATE))),
                              {"p"}, t2.final | {"y"})
    return t1, t2


def rebuilt(t):
    """An equal copy of t, built separately."""
    return type(t)(set(t.states), set(t.input_alphabet), set(t.output_alphabet),
                   list(t.transitions), set(t.initial), set(t.final), name=t.name)


def every_run_graphs(t, u, caps):
    """The origin graphs of t's runs on u within caps, every path followed.

    A run accepts whenever it is in a final state, as in ``_run_2nt``.
    """
    u = tuple(u)
    tape = (LMARK,) + u + (RMARK,)
    graphs = set()
    stack = [(q, 0, (), (), 0) for q in t.initial]
    while stack:
        q, pos, out, org, steps = stack.pop()
        if q in t.final:
            graphs.add(OriginGraph(u, out, org))
        if steps == caps.max_steps:
            continue
        for (p, a, v, d, r) in t.transitions:
            if p == q and a == tape[pos] and len(out) + len(v) <= caps.max_output_len:
                npos = pos + 1 if d == RIGHT else pos - 1
                stack.append((r, npos, out + v, org + (pos,) * len(v), steps + 1))
    return graphs
