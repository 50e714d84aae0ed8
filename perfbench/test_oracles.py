"""The benchmark's oracles and checks catch planted faults.

Each workload runs one real pass; its check must pass on the program's
answers and fail once one answer is planted wrong.  Run from the
repository root:

    python3 -m pytest -q perfbench/test_oracles.py
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from origami import corpus, transducers  # noqa: E402
from origami.transducers import RunCaps  # noqa: E402


def real_pass(cls, seed=3):
    w = cls(seed)
    w.prepare()
    w.setup()
    return w, {op.name: op.digest(op.run()) for op in w.ops()}


def planted(answers, name, value):
    out = dict(answers)
    out[name] = value
    return out


# -- the oracles themselves --------------------------------------------------

def test_2nt_enumerator_catches_the_seen_set_fault():
    t = W.seen_set_repro()
    program = transducers.run_origin_graphs(t, "a", W.REPRO_CAPS)
    assert {(g.output, g.orig) for g in program.graphs} == set()
    assert oracles.graphs_2nt(t, "a", 3, 5) == {(("a",), (1,))}
    # one step less and the only run no longer fits
    assert oracles.graphs_2nt(t, "a", 3, 4) == set()


def test_2nt_enumerator_on_id_and_rev():
    for n in range(1, 5):
        pos = tuple(range(1, n + 1))
        # T_id: one pass right; T_rev: right, then back left emitting
        assert oracles.graphs_2nt(corpus.t_id(), "a" * n, n, n + 2) == {(("a",) * n, pos)}
        assert oracles.graphs_2nt(corpus.t_id(), "a" * n, n, n + 1) == set()
        assert oracles.graphs_2nt(corpus.t_rev(), "a" * n, n, 2 * n + 3) == {(("a",) * n, pos[::-1])}
        assert oracles.graphs_2nt(corpus.t_rev(), "a" * n, n, 2 * n + 2) == set()


def test_traversal_counter_from_the_definition():
    for n in range(1, 9):
        ident, rev = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        assert oracles.traversal(rev, ident, n) == n // 2
    # one source moving right over three positions, counted once per position
    assert oracles.traversal((1, 1), (4, 3), 4) == 1
    assert oracles.traversal((1, 2, 3), (4, 4, 4), 4) == 3
    # a planted off-by-one (z < new excluded at z = x) reads one less here
    faulty = max(len({x for x, new in zip((1,), (2,)) if x < z < new}) for z in range(1, 3))
    assert oracles.traversal((1,), (2,), 2) == 1 != faulty


def test_reach_uses_the_window_and_the_origins():
    t = corpus.t_slow()   # copies, then drops the tail or pads at the end
    assert oracles.reach_1nt(t, "aaa", "aaa", (1, 2, 3), oracles.same_origin)
    assert not oracles.reach_1nt(t, "aaa", "aaa", (1, 1, 1), oracles.same_origin)
    # the copy emits at 1, 2, 3; against targets 1, 1, 1 the displacement is 0, 1, 2
    assert oracles.reach_1nt(t, "aaa", "aaa", (1, 1, 1), oracles.shift_window(2))
    assert not oracles.reach_1nt(t, "aaa", "aaa", (1, 1, 1), oracles.shift_window(1))


# -- the workload checks -------------------------------------------------------

@pytest.fixture(scope="module")
def contains_pass():
    return real_pass(W.ReductionContains)


def test_contains_check(contains_pass):
    w, answers = contains_pass
    assert w.check(answers) == ([], set())
    status, cex = answers["contains shift(1)"]
    assert status == "fails"
    # shift(3) claimed to fail at shift(1)'s counterexample: it has a partner
    errors, _ = w.check(planted(answers, "contains shift(3)", answers["contains shift(1)"]))
    assert any("finds a T_up partner" in e for e in errors)
    # shift(1) claimed to hold: the sampled inputs include failing ones
    errors, _ = w.check(planted(answers, "contains shift(1)", ("holds-on-sweep", None)))
    assert any("without a partner" in e for e in errors)
    # a genuine failing input of the same length, but not the first one
    letters = sorted(w.tdown.input_alphabet)
    u = next(v for v in itertools.product(letters, repeat=len(cex[0]))
             if v > cex[0] and not w._all_partnered(v, 1))
    out, org = next(iter(w._down_graphs(u)))
    errors, _ = w.check(planted(answers, "contains shift(1)", ("fails", (u, out, org, cex[3]))))
    assert any("shorter input" in e for e in errors)


@pytest.fixture(scope="module")
def profile_pass():
    return real_pass(W.ReductionProfile)


def test_profile_check(profile_pass):
    w, answers = profile_pass
    assert w.check(answers) == ([], set())
    values, approx = answers["profile GROW"]
    for n, delta in ((5, -1), (3, +1)):
        wrong = tuple((k, v + delta if k == n else v) for k, v in values)
        errors, _ = w.check(planted(answers, "profile GROW", (wrong, approx)))
        assert any(f"profile({n})" in e for e in errors)


@pytest.fixture(scope="module")
def mso_pass():
    return real_pass(W.MsoResync)


def test_mso_resync_check(mso_pass):
    w, answers = mso_pass
    assert w.check(answers) == ([], set())
    words = list(answers["words R_2"])
    words[0] = not words[0]
    errors, _ = w.check(planted(answers, "words R_2", tuple(words)))
    assert any("disagree" in e for e in errors)
    member = list(answers["membership R_1"])
    member[0] = None if member[0] is not None else ((0,),)
    errors, _ = w.check(planted(answers, "membership R_1", tuple(member)))
    assert any("membership" in e for e in errors)
    bounded, big, small = answers["bounded universal"]
    errors, _ = w.check(planted(answers, "bounded universal", (True, big, small)))
    assert any("is_bounded" in e for e in errors)


@pytest.fixture(scope="module")
def per_input_pass():
    return real_pass(W.PerInput)


def test_per_input_check(per_input_pass):
    w, answers = per_input_pass
    errors, failed = w.check(answers)
    assert errors == [] and failed == {W.REPRO_OP}
    name = next(k for k, v in answers.items() if k.startswith("enumerate fixed") and v[0])
    graphs, pruned = answers[name]
    errors, _ = w.check(planted(answers, name, (graphs[1:], pruned)))
    assert any(name in e for e in errors)
    name = f"equiv {w.t_id.name} {w.t_rev.name}"
    errors, _ = w.check(planted(answers, name, (True, None)))
    assert any(name in e for e in errors)
    name = f"profile {w.t_id.name} {w.t_rev.name}"
    errors, _ = w.check(planted(answers, name, tuple((n, n // 2 + 1) for n in range(1, 7))))
    assert any("floor(n/2)" in e for e in errors)
    name = f"contains {w.rand[0].name} {w.rand[0].name} identity"
    errors, _ = w.check(planted(answers, name, ("fails", None)))
    assert any("not reflexive" in e for e in errors)


def test_a_second_seed_passes_every_check():
    w, answers = real_pass(W.PerInput, seed=11)
    assert w.check(answers) == ([], {W.REPRO_OP})


def test_step_cap_cannot_cut_the_random_machines():
    caps = W.RAND_CAPS
    bound = W.RAND_STATES * (W.RAND_LEN + 2) * sum((2 * W.RAND_LEN) ** i
                                                   for i in range(caps.max_output_len + 1))
    assert caps.max_steps > bound
    assert RunCaps(3, 5) == W.REPRO_CAPS
