#!/usr/bin/env python3
"""Check whether catgram's known defects are still present.

    python3 perfbench/defects.py

Run from the root of a catgram checkout.  The timed workloads hold only ops
that succeed today, so the failures the benchmark was asked to keep in view
are probed here instead, one JSON record per defect on standard output:

- ``deep_recursion``: the ``catgram parse`` sequence on G_EPS a^600 raises
  RecursionError in-process (tree code recurses once per node);
- ``cli_traceback``: ``catgram parse`` on the same word exits 1 with a
  Python traceback, where the documented contract keeps 1 for "property
  fails";
- ``catalan_enumeration``: ``enumerate_parses(limit=10)`` on G_AMB a^n costs
  about four times more per extra letter, whatever the limit.

The exit code is 0 whatever the findings; the records say which defects
remain.  The whole probe takes about 10 s.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "catgram", "__init__.py")):
        print(f"error: no catgram sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    mods = workloads.import_catgram()
    p = mods.parser
    g_eps = mods.fixtures.G_EPS
    w = workloads.path_of(g_eps, "a" * 600)
    t0 = time.perf_counter()
    try:
        forest = p.parse_forest(g_eps, w)
        p.enumerate_parses(forest, 10)
        error = None
    except RecursionError as exc:
        error = f"RecursionError: {exc}"
    report("deep_recursion", error is not None, seconds=time.perf_counter() - t0, error=error)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        fx = workloads.Fixtures(mods, workdir)
        fx.grammar("g_eps", g_eps)
        t0 = time.perf_counter()
        res = workloads.run_cli(["parse", "-g", fx.paths["g_eps"], "-w", "a" * 600], "0")
        traceback = b"Traceback (most recent call last)" in res.stderr
        report("cli_traceback", res.returncode == 1 and traceback,
               seconds=time.perf_counter() - t0, exit_code=res.returncode, traceback=traceback)

    g_amb = mods.fixtures.G_AMB
    seconds = {}
    for n in (9, 10, 11):
        forest = p.parse_forest(g_amb, workloads.path_of(g_amb, "a" * n))
        t0 = time.perf_counter()
        p.enumerate_parses(forest, 10)
        seconds[n] = time.perf_counter() - t0
    growth = (seconds[11] / seconds[9]) ** 0.5
    report("catalan_enumeration", growth > 2.0, growth_per_letter=growth, seconds=seconds)
    return 0


def report(defect: str, present: bool, **details) -> None:
    print(json.dumps({"defect": defect, "present": present, **details}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
