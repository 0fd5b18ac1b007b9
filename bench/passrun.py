"""One pass of one workload in a fresh process; ``run.py`` starts it.

    python3 bench/passrun.py ROOT WORKLOAD SEED PASS TRACED T_SPAWN [setup]

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process, so setup time covers interpreter start, ``import gkod.cli`` (what
every ``gk`` invocation imports) and the first data-table load.  With the
trailing ``setup`` argument the process stops there.  Prints one JSON line.
"""

import sys
import time

import spans


def _load_tables(gkod):
    gkod.sporadic_order("M11")
    gkod.canonicalize(gkod.GroupId("L", n=2, q=4))


def main(argv):
    root, workload, seed, pass_index, traced, t_spawn = argv[:6]
    traced = traced == "1"
    tr = spans.Tracer() if traced else spans.NULL
    sys.path.insert(0, f"{root}/src")
    import gkod
    import gkod.cli  # noqa: F401 -- part of what every gk invocation pays

    with tr.span("catalog.tables"):
        _load_tables(gkod)
    setup_s = time.monotonic() - float(t_spawn)

    import json
    import os
    import platform
    import resource

    if not os.path.realpath(gkod.__file__).startswith(os.path.realpath(f"{root}/src")):
        print(f"gkod imported from {gkod.__file__}, not from {root}/src", file=sys.stderr)
        return 3
    if argv[6:] == ["setup"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    import gate
    import workloads

    parts = workloads.WORKLOADS[workload]
    ref = gate.load_reference(*parts)
    ops = workloads.ops(parts, workloads.pass_rng(workload, int(seed), int(pass_index)), ref)

    pass_span = len(tr.spans) if traced else None
    t0 = time.perf_counter()
    with tr.span("bench.pass"):
        raw, raised, seconds = workloads.run_ops(ops, tr)
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = gate.check(workloads.answers(ops, raw), raised, ref["answers"])
    out = {
        "pass": int(pass_index), "traced": traced, "setup_s": setup_s,
        "wall_s": wall_s, "rss_mb": rss_mb, "op_s": seconds,
        "attempted": len(ref["answers"]), "failures": failures,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    if traced:
        out.update(_trace_summary(tr, pass_span))
    print(json.dumps(out))
    return 0


def _trace_summary(tr, pass_span):
    """Self time and longest span per name, the counters, and the spans
    themselves with times from pass start.  Spans before ``pass_span`` are
    the setup's; the rest nest under it, so their self times must add up to
    its duration (``residual_s`` is the difference)."""
    own = spans.self_times(tr.spans)
    self_s, max_s = {}, {}
    for i, (name, start, end, _) in enumerate(tr.spans):
        self_s[name] = self_s.get(name, 0.0) + own[i]
        max_s[name] = max(max_s.get(name, 0.0), end - start)
    _, start, end, _ = tr.spans[pass_span]
    residual = sum(own[pass_span:]) - (end - start)
    return {
        "self_s": self_s, "max_s": max_s, "counters": tr.counters,
        "residual_s": residual,
        "spans": [[n, s - start, e - start, p] for n, s, e, p in tr.spans],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
