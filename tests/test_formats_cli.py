import json
import os
import re

import pytest

from origami import cli, corpus, formats
from origami.cli import main
from origami.formats import (parse_automaton, format_automaton, parse_transducer,
                             format_transducer, parse_machine, format_machine,
                             parse_origin_graph, format_origin_graph, parse_resynchronizer,
                             normalize_state_names, FormatError)
from origami.automata import StructuredAlphabet, StructuredNfa, language_equal_upto
from origami.resync import (Resynchronizer, ExtendedResynchronizer, is_bounded,
                            simplify_extended)
from origami.reduction import halt2
from origami.transducers import OneWayTransducer, RunCaps, run_origin_graphs, OriginGraph
from origami.mso import mso_compile, parse_formula

from outcomes import outcome

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data(name):
    return os.path.join(DATA, name)


def test_automaton_round_trip():
    auto = mso_compile(parse_formula("(x = y + 1) | (y = x + 1)"), ("x", "y"), "ab")
    text = format_automaton(auto)
    back = parse_automaton(text)
    assert language_equal_upto(auto, back, 3)


def test_transducer_round_trip():
    for t in corpus.all_corpus():
        text = format_transducer(t)
        back = parse_transducer(text, name=t.name)
        caps = RunCaps(5, 25)
        for u in [("a",), ("a", "a")]:
            if not set(u) <= t.input_alphabet:
                continue
            assert run_origin_graphs(t, u, caps).graphs == \
                run_origin_graphs(back, u, caps).graphs


def test_machine_round_trip():
    m = halt2()
    back = parse_machine(format_machine(m))
    assert back.rules == m.rules and back.blank == m.blank


def test_origin_graph_round_trip():
    g = OriginGraph("aba", "cd", (1, 3))
    assert parse_origin_graph(format_origin_graph(g)) == g


def test_parse_simple_resync():
    r = formats.load(data("pm1.rsync"))
    assert isinstance(r, Resynchronizer) and r.m == 0


def test_parse_extended_resync():
    r = formats.load(data("first_to_last.rsync"))
    assert isinstance(r, ExtendedResynchronizer)


def test_typed_lines_with_unknown_types_rejected(tmp_path, capsys):
    head = "output-alphabet: c d\ngamma: true\n"
    for line in ("gamma(z): true", "delta(z,c): false", "delta(c,z): false"):
        with pytest.raises(FormatError, match="unknown output type"):
            parse_resynchronizer(head + line + "\n")
    bad = tmp_path / "bad.rsync"
    bad.write_text(head + "delta(z,c): false\n")
    assert main(["resync-check", str(bad), data("shifted_src.graph"),
                 data("shifted_src.graph")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown output type")
    # known types are stored under their pair
    r = parse_resynchronizer(head + "delta(d,c): false\n")
    assert r.delta_by_type_pair[(("d",), ("c",))] == parse_formula("false")


def test_nfa_file_and_gamma_automaton_line(tmp_path):
    gamma = parse_formula("(x = y + 1) | (y = x + 1)")
    auto = mso_compile(gamma, ("x", "y"), "ab")
    (tmp_path / "pm1.nfa").write_text(format_automaton(auto))
    loaded = formats.load(str(tmp_path / "pm1.nfa"))
    assert language_equal_upto(loaded, auto, 3)
    (tmp_path / "pm1.rsync").write_text("params:\ngamma-automaton: pm1.nfa\n")
    r = formats.load(str(tmp_path / "pm1.rsync"))
    assert isinstance(r, Resynchronizer) and r.gamma_formula is None and r.base == {"a", "b"}
    from origami.resync import pair_in_resync
    s, sp = OriginGraph("abab", "cc", (1, 3)), OriginGraph("abab", "cc", (2, 4))
    assert pair_in_resync(r, s, sp) is not None
    assert pair_in_resync(r, s, OriginGraph("abab", "cc", (2, 3))) is None


def test_extended_file_with_unknown_variables_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rsync"
    bad.write_text("output-alphabet: c d\nalpha: exists z. z in K\n")
    graph = data("shifted_src.graph")
    assert main(["resync-check", str(bad), graph, graph]) == 2
    assert capsys.readouterr().err == "error: alpha uses unknown free variables ['K']\n"
    # a typed gamma line is checked as well
    bad.write_text("output-alphabet: c d\ngamma(d): w <= x\n")
    assert main(["resync-check", str(bad), graph, graph]) == 2
    assert capsys.readouterr().err == \
        "error: gamma of type ('d',) uses unknown free variables ['w']\n"


def test_format_dot_only_where_it_is_printed(capsys):
    pair = [data("slow.1nt"), data("fast.1nt")]
    for argv in (["contains", *pair, data("identity.rsync")], ["resync-search", *pair],
                 ["traversal-profile", *pair]):
        assert main([*argv, "--format", "dot"]) == 2, argv[0]
        assert "invalid choice: 'dot'" in capsys.readouterr().err
    assert main(["origin-graphs", data("one_two.1nt"), "aa", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_transducer("kind: 3nt\n")
    with pytest.raises(FormatError):
        parse_transducer("kind: 1nt\ninput-alphabet: a\noutput-alphabet: b\n"
                         "states: p\ninitial: p\nfinal: p\np -- a b --> p\n")
    with pytest.raises(FormatError):
        parse_machine("states: q\nalphabet: B\ninitial: q\nfinal: q\nq,B > q,B,R\n")


LOOP = "alphabet: a\nstates: p\ninitial: p\nfinal: p\n"
ONE_WAY = "kind: 1nt\ninput-alphabet: a\noutput-alphabet: a\nstates: p\ninitial: p\nfinal: p\n"
TYPED = "output-alphabet: c d\nout-params: O\ndelta: false\n"

FORMAT_ROWS = [
    ("comments and blank lines",
     lambda: parse_automaton("# a loop\n\n" + LOOP + "  \n# on a\np -- a --> p\n"),
     StructuredNfa(StructuredAlphabet({"a"}), {"p"}, {"p"}, {"p"}, (("p", ("a", ()), "p"),))),
    ("shared delta line and typed outputs",
     lambda: (lambda r: (r.gamma_by_type[("c", 1)], r.delta_by_type_pair[(("c", 1), ("d", 0))]))(
         parse_resynchronizer(TYPED + "gamma(c:1): first(x) & last(y)\n")),
     (parse_formula("first(x) & last(y)"), parse_formula("false"))),
    ("typed output with a wrong bit count",
     lambda: parse_resynchronizer(TYPED + "gamma(c:10): true\n"), FormatError),
    ("flattened state names collide",
     lambda: sorted(normalize_state_names(OneWayTransducer(
         {("a", "b"), "a_b"}, {"a"}, {"a"}, ((("a", "b"), "a", ("a",), "a_b"),),
         {("a", "b")}, {"a_b"})).transitions),
     [("s1", "a", ("a",), "s0")]),
    ("missing header", lambda: parse_automaton("alphabet: a\n"), FormatError),
    ("bad automaton transition", lambda: parse_automaton(LOOP + "p a p\n"), FormatError),
    ("wrong track-bit count",
     lambda: parse_automaton("tracks: x\n" + LOOP + "p -- a --> p\n"), FormatError),
    ("bad two-way transition",
     lambda: parse_transducer(ONE_WAY.replace("1nt", "2nt") + "p -- a / a --> p\n"), FormatError),
    ("transducer the constructor rejects",
     lambda: parse_transducer(ONE_WAY + "p -- b / a --> p\n"), FormatError),
    ("machine with no alphabet",
     lambda: parse_machine("states: q\nalphabet:\ninitial: q\nfinal: q\n"), FormatError),
    ("unknown extension", lambda: formats.load(os.path.join(DATA, os.pardir, "pyproject.toml")),
     FormatError),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in FORMAT_ROWS],
                         ids=[row[0] for row in FORMAT_ROWS])
def test_format_rows(call, expected):
    assert outcome(call) == expected


# -- CLI ------------------------------------------------------------------------

def test_cli_origin_graphs(capsys):
    code = main(["origin-graphs", data("one_two.1nt"), "aa"])
    out = capsys.readouterr().out
    assert code == 0
    assert "a a / 1 2" in out


def test_cli_origin_graphs_json_deterministic(capsys):
    main(["origin-graphs", data("one_two.1nt"), "aa", "--format", "json"])
    first = capsys.readouterr().out
    main(["origin-graphs", data("one_two.1nt"), "aa", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["pruned"] is False and len(payload["graphs"]) == 3


def test_cli_origin_equiv(capsys):
    assert main(["origin-equiv", data("id.2nt"), data("id.2nt"), "--max-len", "3"]) == 0
    assert main(["origin-equiv", data("id.2nt"), data("rev.2nt"), "--max-len", "3"]) == 1


def test_cli_mso_compile(capsys):
    code = main(["mso-compile", "first(x) & last(x)", "--signature", "x",
                 "--alphabet", "a"])
    out = capsys.readouterr().out
    assert code == 0 and "tracks: x" in out
    assert main(["mso-compile", "first(x"]) == 2


def test_cli_resync_check(capsys):
    code = main(["resync-check", data("pm1.rsync"),
                 data("shifted_src.graph"), data("shifted_tgt.graph")])
    assert code == 0
    assert "accepted" in capsys.readouterr().out
    code = main(["resync-check", data("identity.rsync"),
                 data("shifted_src.graph"), data("shifted_tgt.graph")])
    assert code == 1


def test_cli_resync_check_prints_the_parameter_witness(tmp_path, capsys):
    src, tgt = tmp_path / "src.graph", tmp_path / "tgt.graph"
    src.write_text(format_origin_graph(OriginGraph("ab", "c", (1,))))
    tgt.write_text(format_origin_graph(OriginGraph("ab", "c", (2,))))
    assert main(["resync-check", data("param_example.rsync"), str(src), str(tgt)]) == 0
    assert capsys.readouterr().out == "accepted\n  I = {1}\n"


def test_cli_resync_bounded(capsys):
    assert main(["resync-bounded", data("pm1.rsync")]) == 0
    assert main(["resync-bounded", data("univ.rsync")]) == 1
    out = capsys.readouterr().out
    assert "unbounded" in out


def test_cli_resync_bounded_simplifies_an_extended_file(capsys):
    # an extended resynchronizer is decided through its simplified form
    want = is_bounded(simplify_extended(formats.load(data("first_to_last.rsync"))))
    assert want.bounded
    assert main(["resync-bounded", data("first_to_last.rsync")]) == 0
    assert capsys.readouterr().out == f"bounded: {want.detail}\n"


def test_cli_contains(capsys):
    code = main(["contains", data("slow.1nt"), data("fast.1nt"),
                 data("identity.rsync"), "--max-len", "2", "--max-output", "4"])
    assert code == 1
    code = main(["contains", data("one_two.1nt"), data("one_two.1nt"),
                 data("identity.rsync"), "--max-len", "3"])
    assert code == 0


def test_cli_resync_search(capsys):
    code = main(["resync-search", data("slow.1nt"), data("fast.1nt"),
                 "--k-max", "2", "--max-len", "4"])
    out = capsys.readouterr().out
    assert code == 0 and "R_1" in out


def test_cli_resync_search_json_and_not_found(capsys):
    args = ["resync-search", data("slow.1nt"), data("fast.1nt"), "--max-len", "4"]
    assert main(args + ["--k-max", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["found"], payload["k"], payload["verdict"]["status"]) == (
        True, 1, "holds-on-sweep")
    assert main(args + ["--k-max", "0"]) == 1
    assert capsys.readouterr().out == (
        "not found up to k=0; traversal profile:\n  1: 0\n  2: 1\n  3: 1\n  4: 1\n")


def test_cli_origin_graphs_warns_when_capped(capsys):
    # the identity writes four letters on aaaa, over the output cap of 2
    assert main(["origin-graphs", data("id.2nt"), "aaaa", "--max-output", "2"]) == 0
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "warning: enumeration capped, results are a sample\n"


def test_cli_traversal_profile(capsys):
    code = main(["traversal-profile", data("id.2nt"), data("rev.2nt"),
                 "--max-len", "10", "--max-output", "20", "--max-steps", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "10: 5" in out


def test_cli_gen_reduction_and_check_domino(tmp_path, capsys):
    code = main(["gen-reduction", data("halt2.tm"), "--out-dir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    for name in ("tdown.1nt", "tup.1nt", "tdown_prime.1nt", "tup_prime.1nt", "tiles.txt"):
        assert (tmp_path / name).exists()
    tdown = formats.load(str(tmp_path / "tdown.1nt"))
    assert tdown.kind == "1nt"
    assert main(["check-domino", data("halt2.tm"), "--max-len", "2"]) == 0
    assert main(["check-domino", data("halt2.tm"), "t1,t1"]) == 0


def test_cli_rational_check(capsys):
    code = main(["rational-check", data("block.rrsync"),
                 data("block_src.graph"), data("block_tgt.graph")])
    assert code == 0
    code = main(["rational-check", data("shift2.rrsync"),
                 data("block_src.graph"), data("block_tgt.graph")])
    assert code == 1


def test_rrsync_loads_through_formats_load(tmp_path, capsys):
    shift = formats.load(data("shift2.rrsync"))
    assert (shift.k, shift.input_alphabet, shift.output_alphabet) == (2, {"a", "b"}, {"c", "d"})
    block = formats.load(data("block.rrsync"))
    assert (block.name, block.input_alphabet, block.output_alphabet) == \
        ("block", {"a", "b"}, {"c", "d"})
    bad = tmp_path / "bad.rrsync"
    bad.write_text("input-alphabet: a b\noutput-alphabet: c d\nshift: two\n")
    with pytest.raises(FormatError):
        formats.load(str(bad))
    graphs = [data("block_src.graph"), data("block_tgt.graph")]
    assert main(["rational-check", str(bad), *graphs]) == 2
    assert main(["rational-check", data("identity.rsync"), *graphs]) == 2
    assert main(["contains", data("slow.1nt"), data("fast.1nt"), data("shift2.rrsync")]) == 2


def test_cli_dot(capsys):
    assert main(["dot", data("shifted_src.graph")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert main(["dot", data("shifted_src.graph"), data("shifted_tgt.graph")]) == 0
    out = capsys.readouterr().out
    assert "style=dashed" in out and "doublecircle" in out


def test_cli_usage_errors(capsys):
    assert main(["contains", "missing.1nt", "missing.1nt", "missing.rsync"]) == 2
    assert main(["no-such-command"]) == 2


def test_cli_rejects_bad_input_with_exit_2(tmp_path, capsys):
    for flag in ("--max-output", "--max-steps", "--max-len"):
        assert main(["contains", data("slow.1nt"), data("fast.1nt"), data("identity.rsync"),
                     flag, "0"]) == 2
    assert main(["resync-search", data("slow.1nt"), data("fast.1nt"), "--k-max", "-1"]) == 2
    assert main(["check-domino", data("halt2.tm"), "--max-len", "0"]) == 2
    assert main(["mso-compile", "first(x)", "--signature", "x", "--alphabet", ""]) == 2
    capsys.readouterr()
    # first.1nt reads {a, b}, slow.1nt reads {a}
    assert main(["contains", data("first.1nt"), data("slow.1nt"), data("identity.rsync")]) == 2
    assert main(["traversal-profile", data("first.1nt"), data("slow.1nt")]) == 2
    assert "must share input and output alphabets" in capsys.readouterr().err
    z = tmp_path / "z.rsync"
    z.write_text("alphabet: z\nparams:\ngamma: x = y\n")
    assert main(["contains", data("one_two.1nt"), data("one_two.1nt"), str(z)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: input word uses letters outside the resynchronizer's base alphabet")
    # an extended resynchronizer's output alphabet is {c, d}; the graph writes b
    assert main(["resync-check", data("first_to_last.rsync"), data("shifted_src.graph"),
                 data("shifted_src.graph")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: output word uses letters outside the resynchronizer's output alphabet")
    zc = tmp_path / "zc.graph"
    zc.write_text("input: z\noutput: c\norig: 1\n")
    assert main(["resync-check", data("first_to_last.rsync"), str(zc), str(zc)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: input word uses letters outside the resynchronizer's base alphabet")
    bad = tmp_path / "bad.graph"
    for orig in ("1 x", "1 3"):
        bad.write_text(f"input: a a\noutput: b b\norig: {orig}\n")
        assert main(["dot", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: bad origin graph")


def test_cli_origin_graphs_rejects_letters_outside_the_alphabet(capsys):
    # id.2nt and one_two.1nt read {a}
    for machine, u, a in (("id.2nt", "xz", "x"), ("id.2nt", "az", "z"),
                          ("one_two.1nt", "ab", "b")):
        assert main(["origin-graphs", data(machine), u]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: input letter {a!r} not in alphabet\n"


def test_cli_lets_internal_errors_through(monkeypatch):
    # a plain ValueError is a bug, not bad input, and must not exit 2
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "contains_upto", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["contains", data("slow.1nt"), data("fast.1nt"), data("identity.rsync")])


def test_cli_check_domino_reports_a_shortest_violation(capsys):
    assert main(["check-domino", data("halt2.tm"), "--max-len", "5"]) == 0
    assert capsys.readouterr().out == "ok for every sequence up to length 5\n"
    assert main(["check-domino", data("halt2.tm"), "--max-len", "6"]) == 1
    assert capsys.readouterr().out == ("violated at t6 t5 t4 t2 t7 t2: bottom "
                                       "q0#q0B#aq1#aq1B#a is not a prefix of the history\n")


def test_cli_contains_stats_go_to_stderr_only(tmp_path, capsys):
    assert main(["gen-reduction", data("halt2.tm"), "--out-dir", str(tmp_path)]) == 0
    tiles = " ".join(f"t{i}" for i in range(1, 13))
    for k in (2, 5):
        (tmp_path / f"shift{k}.rsync").write_text(
            f"alphabet: {tiles}\nparams:\ngamma: " +
            " | ".join(f"(x = y + {j})" for j in range(k + 1)) + "\n")
    capsys.readouterr()
    runs = [([str(tmp_path / "tdown.1nt"), str(tmp_path / "tup.1nt"), str(tmp_path / "shift5.rsync"),
              "--max-len", "9", "--max-output", "38", "--max-steps", "135"], 0, "frontier"),
            ([str(tmp_path / "tdown.1nt"), str(tmp_path / "tup.1nt"), str(tmp_path / "shift2.rsync"),
              "--max-len", "5", "--max-output", "22", "--max-steps", "75"], 1, "frontier"),
            ([data("id.2nt"), data("id.2nt"), data("identity.rsync"), "--max-len", "3"], 0, "sweep")]
    for args, code, route in runs:
        for fmt in ("text", "json"):
            assert main(["contains", *args, "--format", fmt]) == code
            plain = capsys.readouterr()
            assert main(["contains", *args, "--format", fmt, "--stats"]) == code
            stats = capsys.readouterr()
            assert stats.out == plain.out and plain.err == ""
            assert stats.err.splitlines()[0] == f"route: {route}"
            assert re.fullmatch(r"gamma compile: \d+\.\d{4} s", stats.err.splitlines()[2])
            # the frontier's counters, on one line, on the frontier route only
            counters = [line for line in stats.err.splitlines() if line.startswith("t2 steps: ")]
            assert len(counters) == (route == "frontier")
            assert all(re.fullmatch(r"t2 steps: \d+, free exits: \d+", line) for line in counters)
    # the sweep's counters: a two-way t2 equal to t1 reads t1's own graphs
    assert _without_seconds(stats.err) == ("route: sweep\ngamma DFA states: 3\n"
                                           "inputs visited: 3\nt1 graphs checked: 3\n"
                                           "t2 runs: 0\n")
    assert main(["contains", data("id.2nt"), data("rev.2nt"), data("identity.rsync"),
                 "--max-len", "3", "--stats"]) == 1
    assert _without_seconds(capsys.readouterr().err) == (
        "route: sweep\ngamma DFA states: 3\n"
        "inputs visited: 2\nt1 graphs checked: 2\nt2 runs: 2\n")
    main(["contains", *runs[0][0], "--stats"])
    assert _without_seconds(capsys.readouterr().err) == (
        "route: frontier\n"
        "gamma DFA states: 8\n"
        "macro-states per layer: 12 13 12 12 12 12 24 12 0\n"
        "t2 steps: 108, free exits: 1200\n"
        "saturated at layer 9: holds for every input length\n")
    main(["contains", *runs[1][0], "--stats"])
    assert _without_seconds(capsys.readouterr().err) == (
        "route: frontier\n"
        "gamma DFA states: 5\n"
        "macro-states per layer: 12 13 12 8\n"
        "t2 steps: 48, free exits: 396\n")
    # an extended resynchronizer has one gamma DFA per output type
    assert main(["contains", data("first.1nt"), data("first.1nt"), data("first_to_last.rsync"),
                 "--max-len", "3", "--stats"]) == 1
    assert _without_seconds(capsys.readouterr().err).splitlines()[:2] == [
        "route: sweep", "gamma DFA states: 4 4"]


def test_cli_traversal_profile_stats_go_to_stderr_only(tmp_path, capsys):
    assert main(["gen-reduction", data("grow.tm"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    runs = [([str(tmp_path / "tdown.1nt"), str(tmp_path / "tup.1nt"), "--max-len", "8",
              "--max-output", "34", "--max-steps", "110"],
             "route: frontier\nmacro-states per layer: 1 2 3 3 4 4 4 4\n"),
            ([data("id.2nt"), data("rev.2nt"), "--max-len", "4"],
             "route: sweep\ninputs visited: 4\nt1 graphs checked: 4\nt2 runs: 4\n")]
    for args, err in runs:
        for fmt in ("text", "json"):
            assert main(["traversal-profile", *args, "--format", fmt]) == 0
            plain = capsys.readouterr()
            assert main(["traversal-profile", *args, "--format", fmt, "--stats"]) == 0
            stats = capsys.readouterr()
            assert stats.out == plain.out and plain.err == ""
            assert stats.err == err
    assert main(["traversal-profile", *runs[0][0]]) == 0
    assert capsys.readouterr().out == "".join(
        f"{n}: {v}\n" for n, v in enumerate([0, 1, 2, 2, 3, 3, 3, 3], 1))


def _without_seconds(err):
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("gamma compile: "))
