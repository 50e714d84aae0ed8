#!/usr/bin/env python3
"""Log the answers of origami's enumeration, equivalence, containment and
profile drivers, one JSON line per call, so that two trees can be compared
with one ``diff``.

Every outermost call of ``run_origin_graphs``, ``origin_equivalent_upto``,
``enumerate_matching_graphs``, ``classical_pairs``, ``contains_upto``,
``contains_upto_rational``, ``resync_search``,
``traversal_profile``, ``pair_in_resync``, ``extended_pair_in_resync``,
``is_bounded`` and ``bounded_by`` is logged with a description of its
arguments (machines by names, sizes and a sha256 digest of their sorted
transitions, initial and final states, so that distinct machines of equal
sizes log apart; resynchronizers by names, origin graphs by their words
and origins, words as lists of letters; keyword arguments left at None
are omitted) and its result: a run's sorted (output, origins) pairs and
``pruned``, an equivalence's flag and its witness's ``sort_key``, the
distinct origin tuples of a partner enumeration in their order (the
logger hands the caller an iterator over them), the sorted classical
pairs, the ``to_json()`` of a verdict, search or profile, a witness's
parameter bits (an extended witness's input and output parameters field
by field), a boundedness result or violation field by field, or null.
A verdict's line also carries its ``saturated_at``, which the JSON
leaves out, and a ``contains_upto`` or ``traversal_profile`` line the
call's ``stats`` without the seconds (route, macro-states per layer,
gamma DFA sizes, frontier or sweep counters), from a dict of the
logger's own when the caller passed none.  Calls made inside another logged call are not
logged, and a line already written by this process is not written
again, so a benchmark's repeated passes log as one.

Compiles are logged too, at any depth: every ``mso_compile`` call, by a
digest of its formula's ``repr``, its signature and base letters, and
the first ``gamma_dfa`` call on each ``Resynchronizer``, the one that
compiles, by its name, signature and base letters.  The result is the
automaton's sizes and a sha256 digest of its sorted states, initial and
final states and, for ``mso_compile``, its transitions in their order,
for ``gamma_dfa`` its step table, so that a diff over the log also shows
a compiled automaton that changed.  A gamma DFA's transitions are
written out only when read (``automata.StepDfa``), so the logger counts
them from the table, states times base letters times bit vectors over
the tracks, and never reads them.  The log goes to the file named by
``ORIGAMI_VERDICT_LOG``, appended to.

As a pytest plugin, with ``scripts`` on the path:

    ORIGAMI_VERDICT_LOG=log.jsonl PYTHONPATH=src:scripts \\
        python -m pytest -q -p verdict_log --hypothesis-seed=0

As a wrapper around a script, for instance a benchmark pass:

    ORIGAMI_VERDICT_LOG=log.jsonl PYTHONPATH=src \\
        python scripts/verdict_log.py perfbench/run.py --workload per-input ...

Run both trees with the same ``PYTHONHASHSEED`` and compare the logs.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import runpy
import sys
import weakref

ENV = "ORIGAMI_VERDICT_LOG"
LOGGED = {"transducers": ("run_origin_graphs", "origin_equivalent_upto",
                          "enumerate_matching_graphs", "classical_pairs"),
          "containment": ("contains_upto", "resync_search", "traversal_profile"),
          "rational": ("contains_upto_rational",),
          "resync": ("pair_in_resync", "extended_pair_in_resync", "is_bounded", "bounded_by")}
WITH_STATS = ("contains_upto", "traversal_profile")


def describe(arg):
    """A short, deterministic description of one argument."""
    if arg is None or isinstance(arg, (bool, int, str)):
        return arg
    if isinstance(arg, (tuple, list)):
        return [describe(a) for a in arg]
    if hasattr(arg, "transitions") and hasattr(arg, "states"):
        machine = (sorted(arg.transitions, key=repr), sorted(arg.initial, key=repr),
                   sorted(arg.final, key=repr))
        return [type(arg).__name__, getattr(arg, "name", ""), len(arg.states),
                len(arg.transitions), _sha(machine)]
    if hasattr(arg, "orig"):
        return ["OriginGraph", list(arg.input), list(arg.output), list(arg.orig)]
    if hasattr(arg, "max_output_len"):
        return ["RunCaps", arg.max_output_len, arg.max_steps]
    if callable(arg) and not hasattr(arg, "name"):
        return ["callable", getattr(arg, "__qualname__", type(arg).__name__)]
    return [type(arg).__name__, getattr(arg, "name", "")]


def outcome(name, result):
    """A logged call's result: for ``run_origin_graphs`` the sorted (output,
    origins) pairs of its graphs and ``pruned``; for
    ``origin_equivalent_upto`` the flag and the witness's ``sort_key``
    (null when the machines agree); for ``enumerate_matching_graphs`` the
    origin tuples in order; for ``classical_pairs`` the sorted (input,
    output) pairs; otherwise its ``to_json()``; for
    ``pair_in_resync`` the witness's parameter bits (null when the pair is
    not related); for ``extended_pair_in_resync``, ``is_bounded`` and
    ``bounded_by`` the dataclass's fields, nested ones too (null when the
    pair is not related or the bound holds)."""
    if name == "run_origin_graphs":
        return {"graphs": sorted((g.output, g.orig) for g in result.graphs),
                "pruned": result.pruned}
    if name == "origin_equivalent_upto":
        return [result[0], None if result[1] is None else result[1].sort_key()]
    if name == "enumerate_matching_graphs":
        return result
    if name == "classical_pairs":
        return sorted(result)
    if hasattr(result, "to_json"):
        return result.to_json()
    if result is None:
        return None
    return result.params if name == "pair_in_resync" else dataclasses.asdict(result)


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def compiled(nfa, steps=None):
    """A compiled automaton's sizes and digest, from its step table when
    one is given (see the module docstring)."""
    if steps is None:
        count, moves = len(nfa.transitions), nfa.transitions
    else:
        count = len(nfa.states) * len(steps) * 2 ** len(nfa.alphabet.tracks)
        moves = sorted(steps.items())
    key = (sorted(nfa.states, key=repr), sorted(nfa.initial, key=repr),
           sorted(nfa.final, key=repr), moves)
    return {"states": len(nfa.states), "transitions": count, "sha256": _sha(key)}


def install(path):
    """Wrap the logged functions everywhere they are bound in origami's
    modules; returns a function that undoes it."""
    import origami
    from origami import cli, containment, mso, rational, resync, transducers

    depth = [0]
    undo = []
    written = set()

    def write(line):
        text = json.dumps(line, sort_keys=True, default=str)
        if text not in written:
            written.add(text)
            with open(path, "a") as out:
                out.write(text + "\n")

    def wrap(name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def logged(*args, **kwargs):
            pos, kw, stats = args, kwargs, None
            if name in WITH_STATS and depth[0] == 0:
                bound = sig.bind(*args, **kwargs)
                stats = bound.arguments.get("stats")
                if stats is None:
                    stats = bound.arguments["stats"] = {}
                pos, kw = bound.args, bound.kwargs
            depth[0] += 1
            try:
                result = fn(*pos, **kw)
                if name == "enumerate_matching_graphs":
                    result = list(result)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                line = {"call": name,
                        "args": [describe(a) for a in args],
                        "kwargs": {k: describe(v) for k, v in sorted(kwargs.items())
                                   if v is not None},
                        "result": outcome(name, result)}
                if hasattr(result, "saturated_at"):
                    line["saturated_at"] = result.saturated_at
                if stats is not None:
                    line["stats"] = {k: v for k, v in stats.items() if not k.endswith("_s")}
                write(line)
            return iter(result) if name == "enumerate_matching_graphs" else result
        return logged

    mso_compile = mso.mso_compile

    @functools.wraps(mso_compile)
    def logged_compile(formula, signature, base):
        result = mso_compile(formula, signature, base)
        write({"call": "mso_compile", "args": [_sha(formula), list(signature), sorted(base)],
               "result": compiled(result)})
        return result

    gamma_dfa = resync.Resynchronizer.gamma_dfa
    compiled_once = weakref.WeakSet()

    @functools.wraps(gamma_dfa)
    def logged_gamma_dfa(r):
        result = gamma_dfa(r)
        if r not in compiled_once:
            compiled_once.add(r)
            write({"call": "gamma_dfa", "args": [r.name, list(r.signature), sorted(r.base)],
                   "result": compiled(*result)})
        return result

    for mod in (origami, mso):
        if mod.mso_compile is mso_compile:
            undo.append((mod, "mso_compile", mso_compile))
            setattr(mod, "mso_compile", logged_compile)
    undo.append((resync.Resynchronizer, "gamma_dfa", gamma_dfa))
    resync.Resynchronizer.gamma_dfa = logged_gamma_dfa

    modules = {"transducers": transducers, "containment": containment, "rational": rational,
               "resync": resync}
    for mod_name, names in LOGGED.items():
        for name in names:
            fn = getattr(modules[mod_name], name)
            wrapper = wrap(name, fn)
            for mod in (origami, transducers, containment, rational, resync, cli):
                if getattr(mod, name, None) is fn:
                    undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def uninstall():
        for (mod, name, fn) in reversed(undo):
            setattr(mod, name, fn)

    return uninstall


def pytest_configure(config):
    """pytest hook: install before the test modules import origami's names."""
    path = os.environ.get(ENV)
    if path:
        install(path)


def main(argv):
    if len(argv) < 2 or ENV not in os.environ:
        print(f"usage: {ENV}=LOG python {argv[0]} SCRIPT [ARGS...]", file=sys.stderr)
        return 2
    install(os.environ[ENV])
    sys.argv = argv[1:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(argv[1])))
    runpy.run_path(argv[1], run_name="__main__")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
