"""Turing machines, domino tiles, computation histories, and the
transducers built from a tile set.

A machine configuration with tape content t, state q and head index h is
encoded as t[:h] + q + t[h:] + '#'; when the head sits just past the
written tape the encoding is t + q + '#' and the next emitted
configuration is the expansion appending one blank.  The tape usage
metric reported by the probe is the encoding length minus the separator,
i.e. written cells plus the state marker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .transducers import OneWayTransducer, EPS

SEP = "#"


class MachineError(ValueError):
    pass


@dataclass(frozen=True)
class TuringMachine:
    states: frozenset
    alphabet: frozenset          # contains the blank
    blank: str
    rules: tuple                 # ((p, a), (q, b, "L"/"R")) pairs, deterministic
    initial: str
    final: str
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.blank not in self.alphabet:
            raise MachineError("blank symbol must belong to the alphabet")
        if self.initial not in self.states or self.final not in self.states:
            raise MachineError("initial and final states must belong to states")
        seen = set()
        for ((p, a), (q, b, d)) in self.rules:
            if (p, a) in seen:
                raise MachineError(f"transition table not deterministic at {(p, a)}")
            seen.add((p, a))
            if p not in self.states or q not in self.states:
                raise MachineError("rule endpoint outside states")
            if a not in self.alphabet or b not in self.alphabet:
                raise MachineError("rule letter outside alphabet")
            if d not in ("L", "R"):
                raise MachineError("rule direction must be L or R")

    def delta(self):
        return dict(self.rules)

    def tape_alphabet(self):
        """Gamma = A + Q + {#}; the three groups must not collide."""
        overlap = (self.alphabet & self.states) | ({SEP} & (self.alphabet | self.states))
        if overlap:
            raise MachineError(f"alphabet, states and {SEP!r} must be disjoint: {overlap}")
        return frozenset(self.alphabet) | frozenset(self.states) | {SEP}


@dataclass(frozen=True)
class Tile:
    index: str
    top: tuple
    bottom: tuple
    kind: str    # copy | right | right-expansion | left | left-expansion

    def __post_init__(self):
        # left expansion tiles have a four-letter bottom row (#qBb)
        if len(self.top) > 3 or len(self.bottom) > 4:
            raise MachineError("tile rows exceed the construction's sizes")


@dataclass(frozen=True)
class TileSet:
    machine: TuringMachine
    tiles: tuple

    def by_index(self):
        return {t.index: t for t in self.tiles}

    def indexes(self):
        return tuple(t.index for t in self.tiles)

    def gamma(self):
        return self.machine.tape_alphabet()

    def top_word(self, lam):
        by = self.by_index()
        out = []
        for i in lam:
            out.extend(by[i].top)
        return tuple(out)

    def bottom_word(self, lam):
        """q0# followed by the bottom rows; the start tile is built in."""
        by = self.by_index()
        out = [self.machine.initial, SEP]
        for i in lam:
            out.extend(by[i].bottom)
        return tuple(out)

    def table(self):
        """Aligned two-row rendering of the tiles."""
        head = "  ".join(f"{t.index:>6}" for t in self.tiles)
        top = "  ".join(f"{''.join(t.top):>6}" for t in self.tiles)
        bot = "  ".join(f"{''.join(t.bottom):>6}" for t in self.tiles)
        return "\n".join((head, top, bot))


def build_tiles(machine: TuringMachine) -> TileSet:
    """The domino tiles simulating one machine step of delay.

    Copy tiles for every letter and the separator; a right tile per right
    move; a right expansion tile per state; per left move, a left tile for
    every tape letter and one left expansion tile.  No start tile: the
    initial configuration is emitted by the downstream transducer itself.
    """
    gamma = machine.tape_alphabet()
    tiles = []
    counter = itertools.count(1)

    def add(top, bottom, kind):
        tiles.append(Tile(f"t{next(counter)}", tuple(top), tuple(bottom), kind))

    for a in sorted(machine.alphabet) + [SEP]:
        add((a,), (a,), "copy")
    for ((p, a), (q, b, d)) in sorted(machine.rules):
        if d == "R":
            add((p, a), (b, q), "right")
    for q in sorted(machine.states):
        add((q, SEP), (q, machine.blank, SEP), "right-expansion")
    for ((p, a), (q, b, d)) in sorted(machine.rules):
        if d == "L":
            for c in sorted(machine.alphabet):
                add((c, p, a), (q, c, b), "left")
            add((SEP, p, a), (SEP, q, machine.blank, b), "left-expansion")
    for t in tiles:
        if len(t.top) > 3 or len(t.bottom) > 4:
            raise MachineError(f"unexpected tile shape {t}")
    return TileSet(machine, tuple(tiles))


# -- simulation ----------------------------------------------------------------

def _encode(tape, head, state):
    return tuple(tape[:head]) + (state,) + tuple(tape[head:]) + (SEP,)


def _run(machine: TuringMachine):
    """The machine's run from the empty tape, one change at a time.

    Yields (tape, head, state, moved) after each change: moved is False
    for an expansion (a blank appended when the head sits past the
    written tape) and True for a machine step, which inserts a blank at
    the left edge when it moves the head off it.  Ends when the machine
    halts; a machine with nothing to do on the blank halts before the
    expansion.  The tape is one list, changed in place.
    """
    delta = machine.delta()
    tape, head, state = [], 0, machine.initial
    while True:
        if head == len(tape):
            if (state, machine.blank) not in delta:
                return
            tape.append(machine.blank)
            yield tape, head, state, False
            continue
        rule = delta.get((state, tape[head]))
        if rule is None:
            return
        state, b, d = rule
        tape[head] = b
        if d == "R":
            head += 1
        elif head == 0:
            tape.insert(0, machine.blank)
        else:
            head -= 1
        yield tape, head, state, True


def history(machine: TuringMachine, max_configs: int, max_cells: int):
    """Prefix of the computation history from the empty tape.

    Returns (word, configs, status) with status in {"halted",
    "still-running", "cell-cap-hit"}.  Expansion configurations (a blank
    appended when the head walks off the written tape) are interleaved and
    count toward max_configs but are not machine steps.
    """
    if max_configs <= 0 or max_cells <= 0:
        raise MachineError("caps must be positive")
    configs = [_encode((), 0, machine.initial)]
    status = "still-running"
    # each change read adds one configuration or ends the history
    for tape, head, state, moved in itertools.islice(_run(machine), max_configs - 1):
        if not moved and len(tape) > max_cells:
            status = "cell-cap-hit"
            break
        configs.append(_encode(tape, head, state))
    else:
        if len(configs) < max_configs:
            status = "halted"
    word = tuple(itertools.chain.from_iterable(configs))
    return word, tuple(configs), status


def tape_probe(machine: TuringMachine, max_steps: int) -> int:
    """Max cells in use within the step budget: encoding length minus the
    separator (written letters plus the state marker).  Never decides
    membership in the bounded-tape set, only reports the probe value.
    """
    if max_steps <= 0:
        raise MachineError("caps must be positive")
    best, steps = 1, 0      # the empty tape's encoding is q0#
    for tape, _head, _state, moved in _run(machine):
        if steps == max_steps:
            break
        steps += moved
        best = max(best, len(tape) + 1)
    return best


def _is_prefix(a, b):
    return len(a) <= len(b) and tuple(b[:len(a)]) == tuple(a)


@dataclass(frozen=True)
class DominoCheck:
    ok: bool
    premise_holds: bool
    detail: str = ""


def check_domino_lemma(tiles: TileSet, lam, max_configs=200, max_cells=200) -> DominoCheck:
    """If the top word is a prefix of the bottom word, the bottom word must
    be a prefix of the computation history.

    Vacuously ok when the premise fails.  Raises when the generated history
    prefix is too short to decide, rather than passing silently.
    """
    lam = tuple(lam)
    known = set(tiles.indexes())
    for i in lam:
        if i not in known:
            raise MachineError(f"unknown tile index {i!r}")
    top = tiles.top_word(lam)
    bottom = tiles.bottom_word(lam)
    if not _is_prefix(top, bottom):
        return DominoCheck(True, False, "premise top <= bottom fails")
    hist, _configs, status = history(tiles.machine, max_configs, max_cells)
    if len(hist) < len(bottom) and status != "halted":
        raise MachineError("history caps too small to decide the prefix relation")
    if _is_prefix(bottom, hist):
        return DominoCheck(True, True, "bottom word is a history prefix")
    return DominoCheck(False, True,
                       f"bottom {''.join(bottom)} is not a prefix of the history")


def check_domino_sweep(tiles: TileSet, max_len: int, max_configs=400, max_cells=400):
    """check_domino_lemma over every index sequence up to max_len.

    Shares prefix work over the sequence tree: both prefix relations are
    monotone (words only grow at the end and the bottom word is never
    shorter than the top word), so comparisons resume where the parent
    left off, and a subtree whose premise has broken is skipped: every
    sequence below it is vacuously fine.  Returns the first violating
    sequence or None.
    """
    hist, _configs, status = history(tiles.machine, max_configs, max_cells)
    halted = status == "halted"
    by = tiles.by_index()
    indexes = tiles.indexes()
    top = []
    bottom = list((tiles.machine.initial, SEP))
    state = [0, False, 0, False]   # matched_tb, broken_tb, matched_bh, broken_bh
    found = []

    def advance():
        m_tb, b_tb, m_bh, b_bh = state
        lt, lb = len(top), len(bottom)
        while not b_tb and m_tb < lt:
            if top[m_tb] != bottom[m_tb]:
                b_tb = True
                break
            m_tb += 1
        while not b_bh and m_bh < lb and m_bh < len(hist):
            if bottom[m_bh] != hist[m_bh]:
                b_bh = True
                break
            m_bh += 1
        state[0], state[1], state[2], state[3] = m_tb, b_tb, m_bh, b_bh

    def rec(depth, path):
        saved = tuple(state)
        advance()
        premise = not state[1]
        if premise:
            if state[3]:
                found.append(tuple(path))
            elif len(bottom) > len(hist):
                if not halted:
                    raise MachineError("history caps too small to decide the prefix relation")
                found.append(tuple(path))
        if premise and not found and depth < max_len:
            for i in indexes:
                t = by[i]
                top.extend(t.top)
                bottom.extend(t.bottom)
                rec(depth + 1, path + [i])
                del top[len(top) - len(t.top):]
                del bottom[len(bottom) - len(t.bottom):]
                if found:
                    break
        state[0], state[1], state[2], state[3] = saved

    rec(0, [])
    return found[0] if found else None


# -- transducers from tiles ------------------------------------------------------

def _bad_prefixes(top, gamma):
    """W_i: words up to |top| letters that are not prefixes of top: every
    word of each length but top's prefix of that length."""
    letters, out = sorted(gamma), []
    for ln in range(1, len(top) + 1):
        prefix = tuple(top[:ln])
        out.extend(w for w in itertools.product(letters, repeat=ln) if w != prefix)
    return out


def build_Tdown(tiles: TileSet) -> OneWayTransducer:
    """Emits the start configuration, then the bottom row per tile."""
    gamma = tiles.gamma()
    trans = [("s0", EPS, (tiles.machine.initial, SEP), "s1")]
    for t in tiles.tiles:
        trans.append(("s1", t.index, t.bottom, "s1"))
    return OneWayTransducer(
        states={"s0", "s1"},
        input_alphabet=set(tiles.indexes()),
        output_alphabet=gamma,
        transitions=tuple(trans),
        initial={"s0"},
        final={"s1"},
        name="T_down",
    )


def build_Tup(tiles: TileSet) -> OneWayTransducer:
    """Emits top rows, or deviates from a prefix once and then anything.

    p0 copies top rows; on any tile it may instead emit a non-prefix of
    that tile's top row and fall into the sink p_fail, which consumes
    silently and emits freely; the end-of-input hop to p1 allows arbitrary
    padding after the last tile.
    """
    gamma = tiles.gamma()
    trans = []
    for t in tiles.tiles:
        trans.append(("p0", t.index, t.top, "p0"))
        for w in _bad_prefixes(t.top, gamma):
            trans.append(("p0", t.index, w, "p_fail"))
        trans.append(("p_fail", t.index, (), "p_fail"))
    for c in sorted(gamma):
        trans.append(("p_fail", EPS, (c,), "p_fail"))
        trans.append(("p1", EPS, (c,), "p1"))
    trans.append(("p0", EPS, (), "p1"))
    return OneWayTransducer(
        states={"p0", "p_fail", "p1"},
        input_alphabet=set(tiles.indexes()),
        output_alphabet=gamma,
        transitions=tuple(trans),
        initial={"p0"},
        final={"p_fail", "p1"},
        name="T_up",
    )


def build_Tup_prime(tiles: TileSet) -> OneWayTransducer:
    """T_up extended with a branch that dumps any output on the first
    letter and then consumes the input silently."""
    up = build_Tup(tiles)
    gamma = tiles.gamma()
    trans = list(up.transitions)
    trans.append(("r0", EPS, (), "p0"))      # hand over to the embedded T_up
    trans.append(("r0", EPS, (), "r1"))
    for c in sorted(gamma):
        trans.append(("r1", EPS, (c,), "r1"))
    for t in tiles.tiles:
        trans.append(("r1", t.index, (), "r2"))
        trans.append(("r2", t.index, (), "r2"))
    return OneWayTransducer(
        states=set(up.states) | {"r0", "r1", "r2"},
        input_alphabet=up.input_alphabet,
        output_alphabet=gamma,
        transitions=tuple(trans),
        initial={"r0"},
        final=set(up.final) | {"r2"},
        name="T_up'",
    )


def build_Tdown_prime(tiles: TileSet) -> OneWayTransducer:
    """Disjoint union of T_down and T_up: every graph of either side."""
    down = build_Tdown(tiles)
    up = build_Tup(tiles)
    trans = [(("d", p), a, out, ("d", q)) for (p, a, out, q) in down.transitions]
    trans += [(("u", p), a, out, ("u", q)) for (p, a, out, q) in up.transitions]
    return OneWayTransducer(
        states={("d", s) for s in down.states} | {("u", s) for s in up.states},
        input_alphabet=down.input_alphabet,
        output_alphabet=down.output_alphabet,
        transitions=tuple(trans),
        initial={("d", s) for s in down.initial} | {("u", s) for s in up.initial},
        final={("d", s) for s in down.final} | {("u", s) for s in up.final},
        name="T_down'",
    )


# -- canned machines ---------------------------------------------------------

def halt2():
    """Halts after two steps; tape bound 3 under the probe metric."""
    return TuringMachine(
        states={"q0", "q1", "q2"},
        alphabet={"B", "a", "b"},
        blank="B",
        rules=(
            (("q0", "B"), ("q1", "a", "R")),
            (("q1", "B"), ("q2", "b", "L")),
        ),
        initial="q0",
        final="q2",
        name="HALT2",
    )


def grow():
    """Right runner: writes a and moves right forever; unbounded tape."""
    return TuringMachine(
        states={"q0"},
        alphabet={"B", "a"},
        blank="B",
        rules=(
            (("q0", "B"), ("q0", "a", "R")),
        ),
        initial="q0",
        final="q0",
        name="GROW",
    )
