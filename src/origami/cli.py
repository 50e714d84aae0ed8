"""Command line front end.

Exit codes: 0 when the analysis holds / accepts / is bounded, 1 when it
fails / rejects / is unbounded, 2 on usage errors and on input origami
rejects (see ``INPUT_ERRORS``).  Any other exception is a bug and ends the
run with its traceback.  JSON output is deterministic (sorted keys, fixed
iteration orders).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import dot as dotmod
from . import formats, mso, rational, reduction
from .containment import contains_upto, resync_search, traversal_profile, report_json
from .resync import (Resynchronizer, ExtendedResynchronizer, ResyncError, is_bounded,
                     pair_in_resync, extended_pair_in_resync)
from .transducers import (RunCaps, EmptyInputError, TransducerAlphabetError,
                          run_origin_graphs, origin_equivalent_upto, word)

# the errors bad input raises: files, formulas, patterns, machines, words
INPUT_ERRORS = (formats.FormatError, mso.MsoSyntaxError, mso.UnboundVariableError,
                rational.RegexError, rational.InterleaveError, reduction.MachineError,
                ResyncError, TransducerAlphabetError, EmptyInputError, FileNotFoundError)


def _caps(args):
    return RunCaps(args.max_output, args.max_steps)


def _load(path, kinds):
    obj = formats.load(path)
    names = {"1nt": "a one-way transducer", "2nt": "a two-way transducer"}
    kind = getattr(obj, "kind", type(obj).__name__)
    if kinds and kind not in kinds and type(obj).__name__ not in kinds:
        raise formats.FormatError(f"{path} holds {names.get(kind, kind)}, expected one of {kinds}")
    return obj


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_origin_graphs(args):
    t = _load(args.transducer, ("1nt", "2nt"))
    res = run_origin_graphs(t, word(args.word.split() if " " in args.word else args.word), _caps(args))
    graphs = res.sorted_graphs()
    if res.pruned:
        print("warning: enumeration capped, results are a sample", file=sys.stderr)
    if args.format == "json":
        _print_json({"pruned": res.pruned,
                     "graphs": [{"output": list(g.output), "orig": list(g.orig)} for g in graphs]})
    elif args.format == "dot":
        for g in graphs:
            print(dotmod.origin_graph_dot(g))
    else:
        for g in graphs:
            out = " ".join(g.output) if g.output else "eps"
            print(f"{out} / {' '.join(str(o) for o in g.orig)}")
    return 0


def cmd_origin_equiv(args):
    t1 = _load(args.t1, ("1nt", "2nt"))
    t2 = _load(args.t2, ("1nt", "2nt"))
    equal, cex = origin_equivalent_upto(t1, t2, args.max_len, _caps(args))
    if equal:
        print("origin-equivalent on the sweep")
        return 0
    print("not origin-equivalent; witness graph present in exactly one side:")
    print(formats.format_origin_graph(cex), end="")
    return 1


def cmd_mso_compile(args):
    formula = mso.parse_formula(args.formula)
    signature = tuple(args.signature.split()) if args.signature else ()
    auto = mso.mso_compile(formula, signature, args.alphabet)
    print(formats.format_automaton(auto), end="")
    return 0


def _load_resync(path):
    r = formats.load(path)
    if not isinstance(r, (Resynchronizer, ExtendedResynchronizer)):
        raise formats.FormatError(f"{path} is not a resynchronizer file")
    return r


def cmd_resync_check(args):
    r = _load_resync(args.resync)
    g1 = _load(args.graph1, ("OriginGraph",))
    g2 = _load(args.graph2, ("OriginGraph",))
    if isinstance(r, ExtendedResynchronizer):
        witness = extended_pair_in_resync(r, g1, g2)
    else:
        witness = pair_in_resync(r, g1, g2)
    if witness is None:
        print("rejected")
        return 1
    names = r.in_params if isinstance(r, ExtendedResynchronizer) else r.params
    print("accepted")
    for name, vec in zip(names, witness.params):
        members = [str(i + 1) for i, b in enumerate(vec) if b]
        print(f"  {name} = {{{', '.join(members)}}}")
    return 0


def cmd_resync_bounded(args):
    r = _load_resync(args.resync)
    if isinstance(r, ExtendedResynchronizer):
        from .resync import simplify_extended
        r = simplify_extended(r)
    res = is_bounded(r)
    if res.bounded:
        print(f"bounded: {res.detail}")
        return 0
    print(f"unbounded: {res.detail}")
    if res.report is not None:
        print(f"pattern states: {res.report.states}")
    return 1


def _print_stats(stats, lines=()):
    """The route taken, then lines, then the frontier's macro-states per
    layer and, for containment, its t2 steps and free exits, or the
    sweep's counters, on stderr."""
    lines = [f"route: {stats['route']}", *lines]
    if stats["route"] == "frontier":
        lines.append("macro-states per layer: " + " ".join(map(str, stats["layers"])))
        if "t2_steps" in stats:
            lines.append(f"t2 steps: {stats['t2_steps']}, free exits: {stats['free_exits']}")
    else:
        lines += [f"inputs visited: {stats['inputs']}", f"t1 graphs checked: {stats['graphs']}",
                  f"t2 runs: {stats['t2_runs']}"]
    print("\n".join(lines), file=sys.stderr)


def cmd_contains(args):
    t1 = _load(args.t1, ("1nt", "2nt"))
    t2 = _load(args.t2, ("1nt", "2nt"))
    r = _load_resync(args.resync)
    stats = {} if args.stats else None
    verdict = contains_upto(t1, t2, r, args.max_len, _caps(args), stats=stats)
    if stats is not None:
        _print_stats(stats, ["gamma DFA states: " + " ".join(map(str, stats["gamma_states"])),
                             f"gamma compile: {stats['gamma_compile_s']:.4f} s"])
        if verdict.saturated_at is not None:
            print(f"saturated at layer {verdict.saturated_at}: holds for every input length",
                  file=sys.stderr)
    if args.format == "json":
        print(report_json(verdict))
    else:
        print(verdict.status)
        if verdict.counterexample:
            print("counterexample:")
            print(formats.format_origin_graph(verdict.counterexample.sigma_p), end="")
            print(f"reason: {verdict.counterexample.reason}")
    return 0 if verdict.holds else 1


def cmd_resync_search(args):
    t1 = _load(args.t1, ("1nt", "2nt"))
    t2 = _load(args.t2, ("1nt", "2nt"))
    result = resync_search(t1, t2, args.k_max, args.max_len, _caps(args))
    if args.format == "json":
        print(report_json(result))
    elif result.found:
        print(f"found: R_{result.k} relates the sweep")
    else:
        print(f"not found up to k={args.k_max}; traversal profile:")
        for n, v in sorted(result.profile.values.items()):
            print(f"  {n}: {'inf' if v is math.inf else v}")
    return 0 if result.found else 1


def cmd_traversal_profile(args):
    t1 = _load(args.t1, ("1nt", "2nt"))
    t2 = _load(args.t2, ("1nt", "2nt"))
    stats = {} if args.stats else None
    profile = traversal_profile(t1, t2, args.max_len, _caps(args), stats=stats)
    if stats is not None:
        _print_stats(stats)
    if args.format == "json":
        print(report_json(profile))
    else:
        for n, v in sorted(profile.values.items()):
            print(f"{n}: {'inf' if v is math.inf else v}")
        if profile.unbounded_growth_evidence():
            print("unbounded-growth evidence (heuristic, not a proof)")
    return 0


def cmd_gen_reduction(args):
    machine = _load(args.machine, ("TuringMachine",))
    tiles = reduction.build_tiles(machine)
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    built = {
        "tdown.1nt": reduction.build_Tdown(tiles),
        "tup.1nt": reduction.build_Tup(tiles),
        "tdown_prime.1nt": formats.normalize_state_names(reduction.build_Tdown_prime(tiles)),
        "tup_prime.1nt": reduction.build_Tup_prime(tiles),
    }
    for fname, t in built.items():
        with open(os.path.join(outdir, fname), "w", encoding="utf-8") as fh:
            fh.write(formats.format_transducer(t))
    with open(os.path.join(outdir, "tiles.txt"), "w", encoding="utf-8") as fh:
        fh.write(tiles.table() + "\n")
    print(f"wrote {', '.join(sorted(built))} and tiles.txt to {outdir}")
    print(tiles.table())
    return 0


def cmd_check_domino(args):
    machine = _load(args.machine, ("TuringMachine",))
    tiles = reduction.build_tiles(machine)
    if args.sequence:
        lam = tuple(args.sequence.replace(",", " ").split())
        res = reduction.check_domino_lemma(tiles, lam)
        print(("ok: " if res.ok else "violated: ") + res.detail)
        return 0 if res.ok else 1
    # one sweep per length, so the first violation is a shortest one
    for n in range(1, args.max_len + 1):
        lam = reduction.check_domino_sweep(tiles, n)
        if lam is not None:
            res = reduction.check_domino_lemma(tiles, lam)
            print(f"violated at {' '.join(lam)}: {res.detail}")
            return 1
    print(f"ok for every sequence up to length {args.max_len}")
    return 0


def cmd_rational_check(args):
    r = _load(args.resync, ("RegexResync", "ShiftResync"))
    g1 = _load(args.graph1, ("OriginGraph",))
    g2 = _load(args.graph2, ("OriginGraph",))
    ok = rational.rational_pair_accepts(r, g1, g2, r.input_alphabet, r.output_alphabet)
    print("accepted" if ok else "rejected")
    return 0 if ok else 1


def cmd_dot(args):
    g1 = _load(args.graph1, ("OriginGraph",))
    if args.graph2:
        g2 = _load(args.graph2, ("OriginGraph",))
        print(dotmod.overlay_dot(g1, g2), end="")
    else:
        print(dotmod.origin_graph_dot(g1), end="")
    return 0


def _at_least(low):
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return parse


def _letters(text):
    if not text.split():
        raise argparse.ArgumentTypeError("needs at least one letter")
    return text.split()


def build_parser():
    p = argparse.ArgumentParser(prog="origami",
                                description="origin-graph analyses for string transducers")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, caps=True, fmt=("text", "json")):
        if caps:
            sp.add_argument("--max-output", type=_at_least(1), default=12)
            sp.add_argument("--max-steps", type=_at_least(1), default=60)
        if fmt:
            sp.add_argument("--format", choices=fmt, default="text")

    sp = sub.add_parser("origin-graphs", help="enumerate capped origin graphs on one input")
    sp.add_argument("transducer")
    sp.add_argument("word")
    common(sp, fmt=("text", "json", "dot"))
    sp.set_defaults(func=cmd_origin_graphs)

    sp = sub.add_parser("origin-equiv", help="compare capped origin semantics")
    sp.add_argument("t1")
    sp.add_argument("t2")
    sp.add_argument("--max-len", type=_at_least(1), default=4)
    common(sp, fmt=())
    sp.set_defaults(func=cmd_origin_equiv)

    sp = sub.add_parser("mso-compile", help="compile a formula to an automaton")
    sp.add_argument("formula")
    sp.add_argument("--signature", default="")
    sp.add_argument("--alphabet", type=_letters, default="a b")
    sp.set_defaults(func=cmd_mso_compile)

    sp = sub.add_parser("resync-check", help="membership of a graph pair")
    sp.add_argument("resync")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.set_defaults(func=cmd_resync_check)

    sp = sub.add_parser("resync-bounded", help="decide boundedness")
    sp.add_argument("resync")
    sp.set_defaults(func=cmd_resync_bounded)

    sp = sub.add_parser("contains", help="containment up to a resynchronizer, on a sweep")
    sp.add_argument("t1")
    sp.add_argument("t2")
    sp.add_argument("resync")
    sp.add_argument("--max-len", type=_at_least(1), default=4)
    sp.add_argument("--stats", action="store_true",
                    help="print the route taken, the gamma DFA size and compile time and "
                         "the frontier's layer sizes or the sweep's counters on stderr")
    common(sp)
    sp.set_defaults(func=cmd_contains)

    sp = sub.add_parser("resync-search", help="least k with R_k relating the sweep")
    sp.add_argument("t1")
    sp.add_argument("t2")
    sp.add_argument("--k-max", type=_at_least(0), default=3)
    sp.add_argument("--max-len", type=_at_least(1), default=4)
    common(sp)
    sp.set_defaults(func=cmd_resync_search)

    sp = sub.add_parser("traversal-profile", help="per-length min-max traversal")
    sp.add_argument("t1")
    sp.add_argument("t2")
    sp.add_argument("--max-len", type=_at_least(1), default=6)
    sp.add_argument("--stats", action="store_true",
                    help="print the route taken and the frontier's layer sizes or the "
                         "sweep's counters on stderr")
    common(sp)
    sp.set_defaults(func=cmd_traversal_profile)

    sp = sub.add_parser("gen-reduction", help="tiles and transducers from a machine")
    sp.add_argument("machine")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_gen_reduction)

    sp = sub.add_parser("check-domino", help="domino prefix property")
    sp.add_argument("machine")
    sp.add_argument("sequence", nargs="?", default=None,
                    help="tile indexes, comma or space separated; omit to sweep")
    sp.add_argument("--max-len", type=_at_least(1), default=4)
    sp.set_defaults(func=cmd_check_domino)

    sp = sub.add_parser("rational-check", help="rational membership of a graph pair")
    sp.add_argument("resync")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.set_defaults(func=cmd_rational_check)

    sp = sub.add_parser("dot", help="DOT export of one graph or an overlay of two")
    sp.add_argument("graph1")
    sp.add_argument("graph2", nargs="?", default=None)
    sp.set_defaults(func=cmd_dot)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
