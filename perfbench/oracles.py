"""Reference computations the benchmark checks origami's answers against.

Each one is written from the definition and shares no code with the
package: it reads the transducers' transition tuples and the graphs'
origin tuples and nothing else.

- ``reach_1nt``: does a one-way transducer have a run on (u, v) whose
  every output origin passes a plain integer predicate against a target
  origin tuple?  Breadth-first over lattice nodes (state, i, j).
- ``graphs_1nt``: every origin graph of a one-way transducer on u, capped.
- ``graphs_2nt``: breadth-first enumeration of a two-way transducer's
  capped runs, keeping each configuration at its least step count.
- ``traversal``: the per-direction traversal count of a graph pair,
  counted position by position from the definition.
- ``min_traversal_1nt``: the least traversal over every partner run of a
  one-way transducer, by exhaustive enumeration with a bound cut.

Run ``python3 perfbench/oracles.py`` from the repository root to rebuild
``perfbench/expected.json`` (brute-force traversal profiles of the
reduction); it takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import deque
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def shift_window(k):
    """shift(k) lets an output keep origin y while its partner emits it at
    x, with y <= x <= y + k."""
    return lambda x, y: 0 <= x - y <= k


def same_origin(x, y):
    return x == y


def reach_1nt(t, u, v, target, ok):
    """Has t a run on input u with output exactly v, where output position
    s is emitted at origin x with ok(x, target[s])?

    Origins follow the one-way convention: a letter-reading transition
    emits at the letter's position, an epsilon transition at the next
    unread letter, or at the last letter once the input is read.
    """
    n, m = len(u), len(v)
    start = [(q, 0, 0) for q in t.initial]
    seen = set(start)
    queue = deque(start)
    while queue:
        q, i, j = queue.popleft()
        if i == n and j == m and q in t.final:
            return True
        for (p, a, out, r) in t.transitions:
            if p != q:
                continue
            if a is None:
                origin, ni = (i + 1 if i < n else n), i
            elif i < n and u[i] == a:
                origin, ni = i + 1, i + 1
            else:
                continue
            nj = j + len(out)
            if nj > m or tuple(v[j:nj]) != tuple(out):
                continue
            if not all(ok(origin, target[s]) for s in range(j, nj)):
                continue
            node = (r, ni, nj)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def graphs_1nt(t, u, max_out, max_steps):
    """Set of (output, origins) of runs of t on u with at most max_steps
    transitions and max_out output letters."""
    n = len(u)
    found = set()
    best = {}
    queue = deque()
    for q in t.initial:
        best[(q, 0, (), ())] = 0
        queue.append((q, 0, (), (), 0))
    while queue:
        q, i, out, org, steps = queue.popleft()
        if i == n and q in t.final:
            found.add((out, org))
        if steps >= max_steps:
            continue
        for (p, a, w, r) in t.transitions:
            if p != q:
                continue
            if a is None:
                origin, ni = (i + 1 if i < n else n), i
            elif i < n and u[i] == a:
                origin, ni = i + 1, i + 1
            else:
                continue
            if len(out) + len(w) > max_out:
                continue
            key = (r, ni, out + tuple(w), org + (origin,) * len(w))
            if key not in best:
                best[key] = steps + 1
                queue.append(key + (steps + 1,))
    return found


def graphs_2nt(t, u, max_out, max_steps):
    """Set of (output, origins) of runs of the two-way t on u of at most
    max_steps moves and max_out output letters.

    Breadth first, so every configuration (state, head, output, origins)
    is first met at its least step count; a configuration met later by a
    longer path adds nothing the shorter one does not.
    """
    n = len(u)
    tape = ("<",) + tuple(u) + (">",)
    found = set()
    queue = deque()
    seen = set()
    for q in t.initial:
        seen.add((q, 0, (), ()))
        queue.append((q, 0, (), (), 0))
    while queue:
        q, pos, out, org, steps = queue.popleft()
        if q in t.final:
            found.add((out, org))
        if steps >= max_steps:
            continue
        for (p, a, w, d, r) in t.transitions:
            if p != q or a != tape[pos]:
                continue
            npos = pos + 1 if d == "R" else pos - 1
            if npos < 0 or npos > n + 1 or len(out) + len(w) > max_out:
                continue
            key = (r, npos, out + tuple(w), org + (pos,) * len(w))
            if key not in seen:
                seen.add(key)
                queue.append(key + (steps + 1,))
    return found


def traversal(src_orig, new_orig, n):
    """Largest number of distinct sources traversing one position in one
    direction.

    Source x traverses z rightward when an output with origin x in the
    first graph has origin new > z >= x in the second, and leftward when
    new < z <= x.
    """
    best = 0
    for z in range(1, n + 1):
        right = {x for x, new in zip(src_orig, new_orig) if x <= z < new}
        left = {x for x, new in zip(src_orig, new_orig) if new < z <= x}
        best = max(best, len(right), len(left))
    return best


def min_traversal_1nt(t, u, v, target):
    """Least traversal(partner, target) over the runs of the one-way t on
    (u, v); math.inf without a partner.

    Every run is enumerated depth first from the definition of its
    origins; a branch is cut once its partial traversal reaches the best
    complete value, which only ever grows as outputs are added.
    """
    n, m = len(u), len(v)
    by_state = {}
    for tr in t.transitions:
        by_state.setdefault(tr[0], []).append(tr)
    best = [math.inf]
    path = set()

    def rec(q, i, j, org):
        if traversal(org, target[:j], n) >= best[0]:
            return
        if i == n and j == m and q in t.final:
            best[0] = traversal(org, target, n)
            return
        node = (q, i, j)
        if node in path:
            return
        path.add(node)
        for (_p, a, out, r) in by_state.get(q, ()):
            if a is None:
                origin, ni = (i + 1 if i < n else n), i
            elif i < n and u[i] == a:
                origin, ni = i + 1, i + 1
            else:
                continue
            nj = j + len(out)
            if nj > m or tuple(v[j:nj]) != tuple(out):
                continue
            rec(r, ni, nj, org + (origin,) * len(out))
        path.discard(node)

    for q in t.initial:
        rec(q, 0, 0, ())
    return best[0]


def profile_value_1nt(t1, t2, u, max_out, max_steps):
    """Largest, over t1's graphs on u, least traversal over t2 partners."""
    value = 0
    for (out, org) in graphs_1nt(t1, u, max_out, max_steps):
        value = max(value, min_traversal_1nt(t2, u, out, org))
    return value


# -- expected.json ---------------------------------------------------------

PROFILE_CASES = {"GROW": 5, "HALT2": 4}


def reduction_caps(n):
    """The caps the benchmark's profile operations use at length n."""
    return 2 + 4 * n, 14 * n


def brute_force_profile(t1, t2, letters, max_len, max_out, max_steps):
    """profile(n) with an input reaching it, for n = 1..max_len."""
    out = {}
    for n in range(1, max_len + 1):
        best, arg = -1, None
        for u in itertools.product(letters, repeat=n):
            val = profile_value_1nt(t1, t2, u, max_out, max_steps)
            if val > best:
                best, arg = val, u
        out[str(n)] = {"value": best, "input": list(arg)}
    return out


def regenerate():
    """Recompute the brute-force profiles with the caps the benchmark
    uses at its longest profile length."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from origami.reduction import build_Tdown, build_Tup, build_tiles, grow, halt2
    from workloads import PROFILE_LEN

    data = {}
    for name, machine in (("GROW", grow()), ("HALT2", halt2())):
        tiles = build_tiles(machine)
        td, tu = build_Tdown(tiles), build_Tup(tiles)
        max_out, max_steps = reduction_caps(PROFILE_LEN[name])
        data[name] = brute_force_profile(td, tu, sorted(td.input_alphabet),
                                         PROFILE_CASES[name], max_out, max_steps)
        print(name, {n: d["value"] for n, d in data[name].items()}, flush=True)
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
