"""Textual file formats for automata, transducers, machines, origin
graphs, and resynchronizers, MSO-defined and rational.

All formats are line based: `key: values` headers followed by one
transition or rule per line.  Words are whitespace-separated letter
tokens with `eps` for the empty word, so multi-character letters (tile
indexes, machine states) need no quoting.
"""

from __future__ import annotations

import itertools
import os
import re

from .automata import StructuredAlphabet, StructuredNfa
from .transducers import OneWayTransducer, TwoWayTransducer, OriginGraph, EPS, LMARK, RMARK, LEFT, RIGHT
from .reduction import TuringMachine
from .resync import Resynchronizer, ExtendedResynchronizer
from . import mso, rational


class FormatError(ValueError):
    pass


def _lines(text):
    # whole-line comments only: '#' is a tape letter inside rule and
    # transition lines, so it cannot start an inline comment
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#") or not line:
            continue
        out.append((i, line))
    return out


def _header(lines, key, required=True, default=None):
    for (_i, line) in lines:
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    if required:
        raise FormatError(f"missing header {key!r}")
    return default


def _tokens(s):
    return tuple(s.split()) if s else ()


def _word(tokens):
    if tokens == ("eps",):
        return ()
    return tuple(tokens)


# -- automata -----------------------------------------------------------------

_NFA_TRANS = re.compile(r"^(\S+)\s+--\s+(\S+?)(?:\[([^\]]*)\])?\s+-->\s+(\S+)$")


def parse_automaton(text: str) -> StructuredNfa:
    lines = _lines(text)
    base = _tokens(_header(lines, "alphabet"))
    tracks = _tokens(_header(lines, "tracks", required=False, default=""))
    states = _tokens(_header(lines, "states"))
    initial = _tokens(_header(lines, "initial"))
    final = _tokens(_header(lines, "final", required=False, default=""))
    alpha = StructuredAlphabet(frozenset(base), tracks)
    trans = []
    for (i, line) in lines:
        if ":" in line.split()[0]:
            continue
        m = _NFA_TRANS.match(line)
        if not m:
            raise FormatError(f"line {i}: cannot parse transition {line!r}")
        p, letter, bits, q = m.groups()
        bitvec = tuple(int(b) for b in (bits or "").split())
        if len(bitvec) != len(tracks):
            raise FormatError(f"line {i}: expected {len(tracks)} track bits")
        trans.append((p, (letter, bitvec), q))
    return StructuredNfa(alpha, set(states), set(initial), set(final), tuple(trans))


def format_automaton(n: StructuredNfa) -> str:
    names = {}
    for i, s in enumerate(sorted(n.states, key=repr)):
        names[s] = f"s{i}"
    out = [
        "alphabet: " + " ".join(sorted(n.alphabet.base)),
        "tracks: " + " ".join(n.alphabet.tracks),
        "states: " + " ".join(names[s] for s in sorted(n.states, key=repr)),
        "initial: " + " ".join(sorted(names[s] for s in n.initial)),
        "final: " + " ".join(sorted(names[s] for s in n.final)),
    ]
    for (p, (a, bits), q) in sorted(n.transitions, key=lambda t: (names[t[0]], t[1], names[t[2]])):
        out.append(f"{names[p]} -- {a}[{' '.join(str(b) for b in bits)}] --> {names[q]}")
    return "\n".join(out) + "\n"


# -- transducers ----------------------------------------------------------------

_T1_TRANS = re.compile(r"^(\S+)\s+--\s+(\S+)\s+/\s+(.*?)\s+-->\s+(\S+)$")
_T2_TRANS = re.compile(r"^(\S+)\s+--\s+(\S+)\s+/\s+(.*?),\s*([LR])\s+-->\s+(\S+)$")


def parse_transducer(text: str, name=""):
    lines = _lines(text)
    kind = _header(lines, "kind")
    if kind not in ("1nt", "2nt"):
        raise FormatError(f"kind must be 1nt or 2nt, got {kind!r}")
    sig = _tokens(_header(lines, "input-alphabet"))
    gam = _tokens(_header(lines, "output-alphabet"))
    states = _tokens(_header(lines, "states"))
    initial = _tokens(_header(lines, "initial"))
    final = _tokens(_header(lines, "final"))
    trans = []
    for (i, line) in lines:
        if ":" in line.split()[0]:
            continue
        if kind == "1nt":
            m = _T1_TRANS.match(line)
            if not m:
                raise FormatError(f"line {i}: cannot parse transition {line!r}")
            p, a, out, q = m.groups()
            letter = EPS if a == "eps" else a
            trans.append((p, letter, _word(_tokens(out)), q))
        else:
            m = _T2_TRANS.match(line)
            if not m:
                raise FormatError(f"line {i}: cannot parse transition {line!r}")
            p, a, out, d, q = m.groups()
            letter = {"<": LMARK, ">": RMARK}.get(a, a)
            direction = LEFT if d == "L" else RIGHT
            trans.append((p, letter, _word(_tokens(out)), direction, q))
    cls = OneWayTransducer if kind == "1nt" else TwoWayTransducer
    try:
        return cls(set(states), set(sig), set(gam), tuple(trans), set(initial), set(final),
                   name=name)
    except ValueError as exc:
        raise FormatError(f"bad transducer: {exc}") from None


def format_transducer(t) -> str:
    out = [
        f"kind: {t.kind}",
        "input-alphabet: " + " ".join(sorted(t.input_alphabet)),
        "output-alphabet: " + " ".join(sorted(t.output_alphabet)),
        "states: " + " ".join(sorted(str(s) for s in t.states)),
        "initial: " + " ".join(sorted(str(s) for s in t.initial)),
        "final: " + " ".join(sorted(str(s) for s in t.final)),
    ]
    if t.kind == "1nt":
        for (p, a, v, q) in sorted(t.transitions, key=repr):
            letter = "eps" if a is EPS else a
            word = " ".join(v) if v else "eps"
            out.append(f"{p} -- {letter} / {word} --> {q}")
    else:
        for (p, a, v, d, q) in sorted(t.transitions, key=repr):
            letter = {LMARK: "<", RMARK: ">"}.get(a, a)
            word = " ".join(v) if v else "eps"
            out.append(f"{p} -- {letter} / {word}, {d} --> {q}")
    return "\n".join(out) + "\n"


def _flatten_state(s):
    if isinstance(s, tuple):
        return "_".join(_flatten_state(x) for x in s)
    return str(s)


def normalize_state_names(t: OneWayTransducer) -> OneWayTransducer:
    """Tuple states (from unions) flattened to strings for serialization."""
    names = {s: _flatten_state(s) for s in t.states}
    if len(set(names.values())) != len(names):
        names = {s: f"s{i}" for i, s in enumerate(sorted(t.states, key=repr))}
    return OneWayTransducer(
        set(names.values()), t.input_alphabet, t.output_alphabet,
        tuple((names[p], a, v, names[q]) for (p, a, v, q) in t.transitions),
        {names[s] for s in t.initial}, {names[s] for s in t.final}, name=t.name)


# -- Turing machines --------------------------------------------------------------

_TM_RULE = re.compile(r"^(\S+)\s*,\s*(\S+)\s*->\s*(\S+)\s*,\s*(\S+)\s*,\s*([LR])$")


def parse_machine(text: str, name="") -> TuringMachine:
    lines = _lines(text)
    states = _tokens(_header(lines, "states"))
    alphabet = _tokens(_header(lines, "alphabet"))
    if not alphabet:
        raise FormatError("alphabet must list the blank first")
    initial = _header(lines, "initial")
    final = _header(lines, "final")
    rules = []
    for (i, line) in lines:
        if ":" in line.split()[0]:
            continue
        m = _TM_RULE.match(line)
        if not m:
            raise FormatError(f"line {i}: cannot parse rule {line!r}")
        p, a, q, b, d = m.groups()
        rules.append(((p, a), (q, b, d)))
    return TuringMachine(set(states), set(alphabet), alphabet[0], tuple(rules),
                         initial, final, name=name)


def format_machine(m: TuringMachine) -> str:
    letters = [m.blank] + sorted(m.alphabet - {m.blank})
    out = [
        "states: " + " ".join(sorted(m.states)),
        "alphabet: " + " ".join(letters),
        f"initial: {m.initial}",
        f"final: {m.final}",
    ]
    for ((p, a), (q, b, d)) in sorted(m.rules):
        out.append(f"{p},{a} -> {q},{b},{d}")
    return "\n".join(out) + "\n"


# -- origin graphs ------------------------------------------------------------------

def parse_origin_graph(text: str) -> OriginGraph:
    lines = _lines(text)
    u = _word(_tokens(_header(lines, "input")))
    v = _word(_tokens(_header(lines, "output", required=False, default="eps")))
    orig_s = _tokens(_header(lines, "orig", required=False, default=""))
    try:
        return OriginGraph(u, v, tuple(int(x) for x in orig_s))
    except ValueError as exc:
        raise FormatError(f"bad origin graph: {exc}") from None


def format_origin_graph(g: OriginGraph) -> str:
    return (
        "input: " + " ".join(g.input) + "\n"
        + "output: " + (" ".join(g.output) if g.output else "eps") + "\n"
        + "orig: " + " ".join(str(o) for o in g.orig) + "\n"
    )


# -- resynchronizers -----------------------------------------------------------------

_GAMMA_TYPED = re.compile(r"^gamma\(([^)]*)\):\s*(.*)$")
_DELTA_TYPED = re.compile(r"^delta\(([^)]*),([^)]*)\):\s*(.*)$")


def _parse_type(token, n_out):
    token = token.strip()
    if ":" in token:
        letter, bits = token.split(":", 1)
        vec = tuple(int(b) for b in bits.strip())
    else:
        letter, vec = token, ()
    if len(vec) != n_out:
        raise FormatError(f"output type {token!r} needs {n_out} parameter bits")
    return (letter,) + vec


def parse_resynchronizer(text: str, base_dir=".", name=""):
    """Simple format: alphabet, params, and gamma (formula or automaton
    path).  The extended format adds output-alphabet, out-params, alpha,
    beta, per-type gamma(tau) lines, and delta(tau1,tau2) lines.
    """
    lines = _lines(text)
    keys = {line.split(":", 1)[0] for (_i, line) in lines if ":" in line}
    extended = bool(keys & {"output-alphabet", "out-params", "alpha", "beta"}) \
        or any(_GAMMA_TYPED.match(line) or _DELTA_TYPED.match(line) for (_i, line) in lines)
    params = _tokens(_header(lines, "params", required=False, default=""))
    base = _tokens(_header(lines, "alphabet", required=False, default="a b"))
    if not extended:
        gamma_path = _header(lines, "gamma-automaton", required=False)
        if gamma_path is not None:
            with open(os.path.join(base_dir, gamma_path), encoding="utf-8") as fh:
                auto = parse_automaton(fh.read())
            return Resynchronizer(params, gamma_automaton=auto, name=name)
        gamma = _header(lines, "gamma")
        return Resynchronizer(params, mso.parse_formula(gamma), base=base, name=name)

    out_base = _tokens(_header(lines, "output-alphabet", required=False, default="c d"))
    out_params = _tokens(_header(lines, "out-params", required=False, default=""))
    alpha_s = _header(lines, "alpha", required=False)
    beta_s = _header(lines, "beta", required=False)
    alpha = mso.parse_formula(alpha_s) if alpha_s else None
    beta = mso.parse_formula(beta_s) if beta_s else None
    shared_gamma = None
    gamma_by_type = {}
    delta_by_pair = {}
    shared_delta = None
    for (_i, line) in lines:
        m = _GAMMA_TYPED.match(line)
        if m:
            tau = _parse_type(m.group(1), len(out_params))
            gamma_by_type[tau] = mso.parse_formula(m.group(2))
            continue
        m = _DELTA_TYPED.match(line)
        if m:
            t1 = _parse_type(m.group(1), len(out_params))
            t2 = _parse_type(m.group(2), len(out_params))
            delta_by_pair[(t1, t2)] = mso.parse_formula(m.group(3))
            continue
        if line.startswith("gamma:"):
            shared_gamma = mso.parse_formula(line[len("gamma:"):].strip())
        elif line.startswith("delta:"):
            shared_delta = mso.parse_formula(line[len("delta:"):].strip())
    common = dict(in_params=params, out_params=out_params, alpha=alpha, beta=beta,
                  input_base=base, output_base=out_base, name=name)
    ext = ExtendedResynchronizer(gamma=shared_gamma, delta=shared_delta, **common)
    for tau in itertools.chain(gamma_by_type, *delta_by_pair):
        if tau not in ext.gamma_by_type:
            raise FormatError(f"unknown output type {tau}")
    # the typed lines override the shared formulas, type by type
    return ExtendedResynchronizer(gamma_by_type={**ext.gamma_by_type, **gamma_by_type},
                                  delta_by_type_pair={**ext.delta_by_type_pair, **delta_by_pair},
                                  **common)


# -- rational resynchronizers ---------------------------------------------------------

def parse_rational(text: str, name=""):
    """Input and output alphabets, then ``shift: k`` or ``regex:`` a pair
    regex (``rational.parse_pair_regex`` syntax)."""
    lines = _lines(text)
    sig = _tokens(_header(lines, "input-alphabet"))
    gam = _tokens(_header(lines, "output-alphabet"))
    shift = _header(lines, "shift", required=False)
    if shift is None:
        return rational.parse_pair_regex(_header(lines, "regex"), name, sig, gam)
    if not shift.isdigit():
        raise FormatError(f"shift must be a non-negative integer, got {shift!r}")
    return rational.make_rational_shift(int(shift), sig, gam)


def load(path: str):
    """Dispatch on extension: .nfa, .1nt, .2nt, .tm, .graph, .rsync, .rrsync."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    ext = os.path.splitext(path)[1]
    if ext == ".nfa":
        return parse_automaton(text)
    if ext in (".1nt", ".2nt"):
        return parse_transducer(text, name=name)
    if ext == ".tm":
        return parse_machine(text, name=name)
    if ext == ".graph":
        return parse_origin_graph(text)
    if ext == ".rsync":
        return parse_resynchronizer(text, base_dir=os.path.dirname(path) or ".", name=name)
    if ext == ".rrsync":
        return parse_rational(text, name=name)
    raise FormatError(f"unknown file extension {ext!r}")
