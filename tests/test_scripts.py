import hashlib
import json
import os
import subprocess
import sys

from origami import corpus

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_script(*args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=120)


def test_reproduce_figures_runs():
    res = run_script("reproduce_figures.py")
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_growth_profiles_runs():
    res = run_script("growth_profiles.py", "--max-len", "4")
    assert res.returncode == 0, res.stderr
    assert "HALT2" in res.stdout and "GROW" in res.stdout


CALLS = """
from origami import corpus
from origami.containment import contains_upto, resync_search, traversal_profile
from origami.mso import mso_compile, parse_formula
from origami.resync import (ExtendedResynchronizer, bounded_by, extended_pair_in_resync,
                            is_bounded, make_param_example, make_pm1, make_shift,
                            make_universal, pair_in_resync)
from origami.transducers import (OriginGraph, RunCaps, classical_pairs,
                                 enumerate_matching_graphs, origin_equivalent_upto,
                                 run_origin_graphs)

def test_calls():
    slow, fast = corpus.t_slow(), corpus.t_fast()
    for _ in range(2):
        contains_upto(slow, fast, make_shift(1, base=("a",)), 3, RunCaps(6, 30))
    resync_search(slow, fast, 2, 3, RunCaps(6, 30))
    # calls pair_in_resync for each partner, which logs nothing
    contains_upto(fast, fast, make_param_example(base=("a",)), 2, RunCaps(6, 30))
    g, g_p = OriginGraph("aa", "b", (1,)), OriginGraph("aa", "b", (2,))
    pair_in_resync(make_param_example(base=("a",)), g, g_p)
    one_two = corpus.t_one_two()
    contains_upto(one_two, one_two, make_shift(0, base=("a",)), 3, RunCaps(6, 30))
    # the caller's own stats dict still receives the stats
    stats = {}
    traversal_profile(fast, slow, 3, RunCaps(6, 30), stats=stats)
    assert stats["route"] == "frontier"
    is_bounded(make_universal(base=("a",)))
    bounded_by(make_pm1(base=("a",)), 1, 4)
    ext = ExtendedResynchronizer(("I",), ("O",), beta=parse_formula("exists z. z in O"),
                                 gamma=parse_formula("x = y | x in I"),
                                 input_base=("a",), output_base=("b",), name="moves-I")
    extended_pair_in_resync(ext, g, g_p)
    t_id = corpus.t_id()
    run_origin_graphs(t_id, ("a", "a"), RunCaps(6, 30))
    for _ in range(2):
        mso_compile(parse_formula("first(x)"), ("x",), "a")
    # the runs origin_equivalent_upto makes are not logged
    origin_equivalent_upto(t_id, corpus.t_rev(), 3, RunCaps(6, 30))
    # the caller still receives the origin tuples, lazily or not
    assert next(enumerate_matching_graphs(one_two, "aa", "aaa")) == (1, 2, 2)
    assert classical_pairs(one_two, 1, RunCaps(6, 30)) == {(("a",), ("a",)), (("a",), ("a", "a"))}

if __name__ == "__main__":
    test_calls()
"""


def described(machine):
    """verdict_log's description of a machine: type, name, sizes and the
    sha256 of its sorted transitions, initial and final states."""
    key = (sorted(machine.transitions, key=repr), sorted(machine.initial, key=repr),
           sorted(machine.final, key=repr))
    return [type(machine).__name__, machine.name, len(machine.states), len(machine.transitions),
            hashlib.sha256(repr(key).encode()).hexdigest()]


def test_verdict_log_records_outermost_calls_once(tmp_path):
    script = tmp_path / "test_calls.py"
    script.write_text(CALLS)
    wrapped, plugin = tmp_path / "wrapped.jsonl", tmp_path / "plugin.jsonl"
    env = dict(os.environ, ORIGAMI_VERDICT_LOG=str(wrapped))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src
    res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "verdict_log.py"),
                          str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    env.update(ORIGAMI_VERDICT_LOG=str(plugin),
               PYTHONPATH=src + os.pathsep + os.path.join(ROOT, "scripts"))
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "verdict_log",
                          "-p", "no:cacheprovider", str(script)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = [json.loads(line) for line in wrapped.read_text().splitlines()]
    compiles = [line for line in lines if line["call"] in ("mso_compile", "gamma_dfa")]
    lines = [line for line in lines if line not in compiles]
    # compiles at any depth: each resynchronizer's first gamma_dfa, the
    # repeated mso_compile once
    assert [(line["call"], line["args"][0]) for line in compiles[:-1]] == [
        ("gamma_dfa", "shift(1)"), ("gamma_dfa", "param-example"), ("gamma_dfa", "shift(0)"),
        ("gamma_dfa", "universal"), ("gamma_dfa", "pm1"), ("gamma_dfa", ""),
        ("gamma_dfa", "")]
    assert compiles[0]["args"] == ["shift(1)", ["x", "y"], ["a"]]
    assert {k: v for k, v in compiles[0]["result"].items() if k != "sha256"} == \
        {"states": 4, "transitions": 16}
    assert compiles[-1]["call"] == "mso_compile"
    assert compiles[-1]["args"][1:] == [["x"], ["a"]]
    assert compiles[-1]["result"]["states"] == 2
    # the repeated call is logged once, the calls resync_search and
    # contains_upto make not at all
    assert [line["call"] for line in lines] == ["contains_upto", "resync_search",
                                                "contains_upto", "pair_in_resync",
                                                "contains_upto", "traversal_profile",
                                                "is_bounded", "bounded_by",
                                                "extended_pair_in_resync", "run_origin_graphs",
                                                "origin_equivalent_upto",
                                                "enumerate_matching_graphs", "classical_pairs"]
    # machines by type, name, sizes and digest, so that machines of equal
    # sizes tell apart
    slow, fast, one_two = described(corpus.t_slow()), described(corpus.t_fast()), \
        described(corpus.t_one_two())
    assert slow[:4] == ["OneWayTransducer", "T_slow", 3, 5]
    assert fast[:4] == ["OneWayTransducer", "T_fast", 2, 3]
    assert one_two[:4] == ["OneWayTransducer", "T_one-two", 2, 3] and one_two[4] != fast[4]
    assert lines[0]["args"] == [slow, fast, ["Resynchronizer", "shift(1)"], 3, ["RunCaps", 6, 30]]
    assert lines[0]["result"]["counterexample"]["input"] == "aa"
    assert lines[0]["saturated_at"] is None
    # containment and profile lines carry the stats, seconds left out
    assert lines[0]["stats"] == {"route": "frontier", "layers": [1], "gamma_states": [4],
                                 "free_exits": 0, "t2_steps": 2}
    assert lines[1]["result"]["k"] == 1 and "saturated_at" not in lines[1]
    assert "stats" not in lines[1] and "stats" not in lines[3]
    assert lines[2]["result"]["status"] == "holds-on-sweep"
    assert lines[2]["saturated_at"] is None
    assert lines[2]["stats"] == {"route": "sweep", "layers": [], "gamma_states": [7],
                                 "inputs": 2, "graphs": 14, "t2_runs": 0}
    assert lines[3]["args"] == [["Resynchronizer", "param-example"],
                                ["OriginGraph", ["a", "a"], ["b"], [1]],
                                ["OriginGraph", ["a", "a"], ["b"], [2]]]
    assert lines[3]["result"] == [[1, 0]]
    # saturated_at is not in the verdict's JSON, so the line carries it
    assert lines[4]["saturated_at"] == 2
    assert lines[4]["stats"]["layers"] == [1, 0]
    assert lines[5]["stats"] == {"route": "frontier", "layers": [1, 1, 1]}
    # boundedness results, field by field
    assert lines[6]["args"] == [["Resynchronizer", "universal"]]
    assert lines[6]["result"]["bounded"] is False
    assert lines[6]["result"]["report"] == {"kind": "infinite-polynomial", "states": [0, 2],
                                            "pump": []}
    assert lines[7]["args"] == [["Resynchronizer", "pm1"], 1, 4]
    assert lines[7]["result"] == {"word": ["a", "a", "a"], "params": [], "target": 2,
                                  "sources": [1, 3]}
    # an extended witness, input and output parameters field by field
    assert lines[8]["args"] == [["ExtendedResynchronizer", "moves-I"],
                                ["OriginGraph", ["a", "a"], ["b"], [1]],
                                ["OriginGraph", ["a", "a"], ["b"], [2]]]
    assert lines[8]["result"] == {"params": [[1, 0]], "out_params": [[1]]}
    # a run's graphs as sorted (output, origins) pairs; words as lists
    assert lines[9]["args"] == [described(corpus.t_id()), ["a", "a"], ["RunCaps", 6, 30]]
    assert lines[9]["args"][0][:4] == ["TwoWayTransducer", "T_id", 2, 3]
    assert lines[9]["result"] == {"graphs": [[["a", "a"], [1, 2]]], "pruned": False}
    # an equivalence's flag and its witness's sort_key
    assert lines[10]["result"] == [False, [["a", "a"], ["a", "a"], [1, 2]]]
    # a partner enumeration's origin tuples in order, classical pairs sorted
    assert lines[11]["args"] == [one_two, "aa", "aaa"]
    assert lines[11]["result"] == [[1, 2, 2]]
    assert lines[12]["args"] == [one_two, 1, ["RunCaps", 6, 30]]
    assert lines[12]["result"] == [[["a"], ["a"]], [["a"], ["a", "a"]]]
    assert plugin.read_text() == wrapped.read_text()


def test_never_run_lists_the_lines_a_command_skips():
    source = open(os.path.join(ROOT, "src", "origami", "traversal.py"), encoding="utf-8").read()
    lines = source.splitlines()

    def line_of(text):
        return next(i for i, line in enumerate(lines, start=1) if text in line)

    res = run_script("never_run.py", "-c",
                     "from origami.transducers import OriginGraph as G; "
                     "from origami.traversal import max_traversal; "
                     "max_traversal(G('ab', 'c', (1,)), G('ab', 'c', (2,)))")
    assert res.returncode == 0, res.stderr
    report = dict(line.split(": ", 1) for line in res.stdout.splitlines() if ": " in line)
    missed = set()
    for part in report["traversal.py"].split(", "):
        a, _, b = part.partition("-")
        missed.update(range(int(a), int(b or a) + 1))
    # the words are equal, so the pair check never raises; max_traversal ran
    assert line_of('raise TraversalError("traversal needs graphs') in missed
    assert line_of("diff_lr[hi] -= 1") not in missed
    assert line_of("def max_traversal(") not in missed
    assert res.stdout.splitlines()[-1].endswith("executable lines never ran")
