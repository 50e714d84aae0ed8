"""origami benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload reduction-contains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; origami is imported from ./src.  A run
draws its seeded inputs once, untimed, runs one untimed warm-up pass,
then repeats {build the program objects, run one pass of the workload's
operations} until ``--seconds`` have gone by, and reports medians over
those repetitions.  Every pass
must give the same answers; after the timed passes, one pass's answers
are checked against the oracles in ``oracles.py``.  The last line of
standard output is the JSON result; the line before it gives the pass
time split by kind of operation.

Times are corrected for the load other tenants put on the host's CPU
(see ``Calibrator``).  With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones; the result holds the
per-layer metrics of the traced passes (medians), and
``trace.overhead_s`` is the traced minus the untraced median pass time.
The spans are written to ``perfbench/results/trace-<workload>-<seed>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5


def load_origami():
    src = ROOT / "src"
    if not (src / "origami" / "__init__.py").is_file():
        sys.exit(f"origami sources not found under {src}; run from a checkout of the repository")
    # the sweeps must run in this one process, whatever the caller's environment
    os.environ.pop("ORIGAMI_THREADS", None)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    import origami
    if Path(origami.__file__).resolve().parent != (src / "origami").resolve():
        sys.exit(f"imported origami from {origami.__file__}, not from {src}")


def _calibration_loop():
    d = {}
    for i in range(4000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
    return len(d)


class Calibrator:
    """Contention-corrected timing.

    On a shared host the same pass can take twice as long when another
    tenant loads the CPU, for tens of seconds at a time.  A timer signal
    runs a fixed pure-Python loop every PERIOD seconds, during the
    measured code, and records how long the loop took.  A measured
    interval is reported as its own time (the loop's time taken out)
    times (NOMINAL_S / L) ** SENSITIVITY, where L is the median loop time
    around it: the seconds it would take at the speed at which the loop
    takes NOMINAL_S, about its time on an idle core of a 2.1 GHz Xeon.

    origami slows less than the loop does (its dictionaries outgrow the
    caches the loop lives in).  Fitting log(pass time) against log(L)
    over a minute of passes gave slopes of 0.6 (reduction-profile),
    0.7-0.8 (reduction-contains) and 1.0 (per-input); SENSITIVITY = 0.7
    keeps the pass-to-pass spread of all three near 6 %, against 15-35 %
    uncorrected.
    """

    PERIOD = 0.02
    NOMINAL_S = 0.0008
    SENSITIVITY = 0.7
    CONTEXT = 4         # earlier loop samples also used, for short intervals

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        _calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(self.CONTEXT):
            self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn):
        """(corrected seconds, result of fn())."""
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        out = fn()
        own = time.perf_counter() - t0 - (self.spent - spent0)
        loop = statistics.median(self.samples[n0 - self.CONTEXT:])
        return own * (self.NOMINAL_S / loop) ** self.SENSITIVITY, out


def run_pass(cal, ops):
    """Time each operation; returns (pass seconds, seconds per operation, answers)."""
    times = []
    raw = []
    for op in ops:
        dt, out = cal.timed(op.run)
        times.append(dt)
        raw.append(out)
    answers = {op.name: op.digest(out) for op, out in zip(ops, raw)}
    return sum(times), times, answers


def measure(cal, workload, seconds, reference, tracer=None):
    """Whole passes, each after a fresh set-up, until `seconds` have gone
    by (at least one); each must answer as `reference` does.  Returns
    [(pass s, per-op s, layers, setup s)] and the operations."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        setup, _ = cal.timed(workload.setup)
        ops = workload.ops()
        mark = tracer.mark() if tracer else None
        total, times, answers = run_pass(cal, ops)
        layers = tracer.layer_metrics(mark) if tracer else None
        if answers != reference:
            changed = sorted(k for k in answers if answers[k] != reference.get(k))
            raise SystemExit(f"answers changed between passes: {changed[:5]}")
        passes.append((total, times, layers, setup))
        if time.perf_counter() >= deadline:
            return passes, ops


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.prepare()
    with Calibrator() as cal:
        setups = [cal.timed(workload.setup)[0] for _ in range(SETUP_REPS)]
        # one untimed pass first: the interpreter specializes hot code as it runs
        workload.setup()
        answers = {op.name: op.digest(op.run()) for op in workload.ops()}
        if trace:
            from tracing import LAYER_METRICS, Tracer
            plain, ops = measure(cal, workload, seconds / 2, answers)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = measure(cal, workload, seconds / 2, answers, tracer)
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes, ops = measure(cal, workload, seconds, answers)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        # median_low keeps counts whole; they repeat exactly from pass to pass
        layer = {m: statistics.median_low(p[2][m] for p in traced)
                 for m in LAYER_METRICS if m != "trace.overhead_s"}
        layer["trace.overhead_s"] = (statistics.median(p[0] for p in traced)
                                     - statistics.median(p[0] for p in plain))
        metrics = {m: {"value": layer[m], "unit": unit} for m, (unit, _how) in LAYER_METRICS.items()}
        tracer.write(HERE / "results" / f"trace-{name}-{seed}.tsv")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups + [p[3] for p in passes]),
                               "unit": "s"},
                   "pass_s": {"value": statistics.median(p[0] for p in passes), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    phases = {f"{kind}_s": {"value": statistics.median(
                  sum(t for t, op in zip(p[1], ops) if op.kind == kind) for p in passes),
              "unit": "s"} for kind in workload.kinds}

    errors, failed_ops = workload.check(answers)
    for e in errors:
        print(f"CHECK FAILED [{name}]: {e}", file=sys.stderr)
    print(json.dumps({"workload": name, "seed": seed, "passes": len(passes),
                      "ops_per_pass": len(ops), "failed_ops": sorted(failed_ops),
                      "phases": phases}))
    rounds = len(passes) + 1     # the warm-up pass counts as attempted
    print(json.dumps({"correct": not errors, "attempted": len(ops) * rounds,
                      "failed": len(failed_ops) * rounds, "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another; the last line
    adds up the operation counts and prefixes each metric with its workload."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        print("\n".join(lines))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_origami()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
