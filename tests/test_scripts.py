import json
import os
import subprocess
import sys

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
from origami.containment import contains_upto, resync_search
from origami.resync import make_shift
from origami.transducers import RunCaps

def test_calls():
    slow, fast = corpus.t_slow(), corpus.t_fast()
    for _ in range(2):
        contains_upto(slow, fast, make_shift(1, base=("a",)), 3, RunCaps(6, 30))
    resync_search(slow, fast, 2, 3, RunCaps(6, 30))

if __name__ == "__main__":
    test_calls()
"""


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
    # the repeated call is logged once, the calls resync_search makes not at all
    assert [line["call"] for line in lines] == ["contains_upto", "resync_search"]
    assert lines[0]["args"] == [["OneWayTransducer", "T_slow", 3, 5],
                                ["OneWayTransducer", "T_fast", 2, 3],
                                ["Resynchronizer", "shift(1)"], 3, ["RunCaps", 6, 30]]
    assert lines[0]["result"]["counterexample"]["input"] == "aa"
    assert lines[1]["result"]["k"] == 1
    assert plugin.read_text() == wrapped.read_text()
