#!/usr/bin/env python3
"""Print the executable lines of ``src/origami`` that a command never runs.

The command runs in this process under a line tracer (``sys.settrace``,
and ``threading.settrace`` for threads it starts) that follows only code
in ``src/origami``; subprocesses are not traced.  A line is executable
when a code object compiled from its module lists it in ``co_lines()``,
and it ran when the tracer saw a line event on it or, for a code
object's first line (its ``def`` or ``class`` line, which a call reports
as a call event, not a line event), a call into that code object.  The output is one line per module with
lines that never ran, ``module.py: 12, 40-42``, then the total.

Tier-1, the default, takes about six minutes under the tracer on a
2-core host, against about 80 s without it:

    PYTHONPATH=src python scripts/never_run.py

Other pytest arguments replace the default ``-q tests``; ``-c`` runs a
Python command instead:

    PYTHONPATH=src python scripts/never_run.py tests/test_traversal.py
    PYTHONPATH=src python scripts/never_run.py -c "import origami"
"""

import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "origami")
PACKAGE = os.path.normcase(os.path.realpath(PACKAGE)) + os.sep


def executable_lines(path):
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines = set()
    todo = [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        todo.extend(k for k in c.co_consts if hasattr(k, "co_lines"))
    return lines


def ranges(lines):
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def trace(command):
    """Run ``command()`` under the tracer; {path: lines that ran}."""
    ran = {}
    inside = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        ok = inside.get(path)
        if ok is None:
            ok = inside[path] = os.path.normcase(os.path.realpath(path)).startswith(PACKAGE)
        if not ok:
            return None
        lines = ran.setdefault(path, set())
        lines.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        command()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {os.path.normcase(os.path.realpath(p)): lines for p, lines in ran.items()}


def main(argv):
    if argv[:1] == ["-c"]:
        source = argv[1]

        def command():
            exec(compile(source, "<command>", "exec"), {"__name__": "__main__"})
    else:
        import pytest

        def command():
            pytest.main(argv or ["-q", "tests"])
    ran = trace(command)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        missed = executable_lines(path) - ran.get(path, set())
        total += len(missed)
        if missed:
            print(f"{name}: {ranges(missed)}")
    print(f"{total} executable lines never ran")


if __name__ == "__main__":
    main(sys.argv[1:])
