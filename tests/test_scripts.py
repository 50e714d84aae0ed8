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
