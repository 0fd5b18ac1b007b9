"""gkod benchmark: runs one workload (or all) and prints its metrics.

    python3 bench/run.py --workload catalog-graph --seed 1 --seconds 55 --trace 0

Every pass is a fresh single-threaded process (``passrun.py``) that sets up
gkod, runs the workload's operations once, and checks every answer against
``ref/``.  Passes repeat until ``--seconds`` is used up.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  The last stdout line is
one JSON object; the full result, with the run environment and every pass,
goes to ``bench/out/``.  See README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("oracle-alt", "catalog-graph")

END_TO_END = {  # name: unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and recorded, not gated: over a mix of oracle targets, degrees,
# catalog calls and graph queries a percentile is no latency anyone waits for
LATENCY = {"query_p50_ms": "ms", "query_p99_ms": "ms"}
PER_LAYER = {
    "oracle.closure_s": "s",
    "oracle.closure_elems": "count",
    "oracle.closure_elems_per_s": "1/s",
    "oracle.closure_retries": "count",
    "oracle.scan_s": "s",
    "oracle.scan_elems_per_s": "1/s",
    "oracle.rss_step_mb": "MB",
    "oracle.perm_scan_s": "s",
    "oracle.perm_count": "count",
    "spectra.alt_s": "s",
    "spectra.alt_max_s": "s",
    "spectra.alt_mu_total": "count",
    "spectra.closed_form_s": "s",
    "catalog.enumerate_s": "s",
    "catalog.enumerate_found": "count",
    "catalog.order_value_s": "s",
    "catalog.tables_s": "s",
    "arith.factorize_s": "s",
    "arith.factorize_calls": "count",
    "arith.complete_frac": "ratio",
    "graph.build_s": "s",
    "graph.edges_total": "count",
    "graph.stats_s": "s",
    "graph.render_s": "s",
    "verifier.case_s": "s",
    "verifier.pattern_enum_s": "s",
    "verifier.family_graphs": "count",
    "cli.table1_s": "s",
    "cli.bytes_out": "bytes",
    "bench.other_s": "s",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 6      # setup-only processes per run, after one warm-up
MIN_PASSES = 3
RUN_LIMIT_S = 150     # stop starting passes past this, whatever --seconds says
DEADLINE_S = 170      # every child process of a run ends by then


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(workload, seed, index, traced, setup_only, timeout):
    """Run one child process; returns its JSON result or raises RuntimeError."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH / "passrun.py"), str(ROOT), workload,
           str(seed), str(index), "1" if traced else "0", repr(t_spawn)]
    if setup_only:
        cmd.append("setup")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"pass {index} timed out after {timeout:.0f} s") from exc
    tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RuntimeError(f"pass {index} printed no result: {tail}") from exc


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(p):
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    s, c = p["self_s"], p["counters"]

    def t(name):
        return s.get(name, 0.0)

    calls = c.get("arith.factorize_calls", 0)
    return {
        "oracle.closure_s": t("oracle.closure"),
        "oracle.closure_elems": c.get("oracle.closure_elems", 0),
        "oracle.closure_elems_per_s": _ratio(c.get("oracle.closure_elems", 0),
                                             t("oracle.closure")),
        "oracle.closure_retries": c.get("oracle.closure_retries", 0),
        "oracle.scan_s": t("oracle.scan"),
        "oracle.scan_elems_per_s": _ratio(c.get("oracle.closure_elems", 0),
                                          t("oracle.scan")),
        "oracle.rss_step_mb": c.get("oracle.rss_step_kb", 0) / 1024,
        "oracle.perm_scan_s": t("oracle.perm_scan"),
        "oracle.perm_count": c.get("oracle.perm_count", 0),
        "spectra.alt_s": t("spectra.alt"),
        "spectra.alt_max_s": p["max_s"].get("spectra.alt", 0.0),
        "spectra.alt_mu_total": c.get("spectra.alt_mu_total", 0),
        "spectra.closed_form_s": t("spectra.closed_form"),
        "catalog.enumerate_s": t("catalog.enumerate"),
        "catalog.enumerate_found": c.get("catalog.enumerate_found", 0),
        "catalog.order_value_s": t("catalog.order_value"),
        "catalog.tables_s": t("catalog.tables"),
        "arith.factorize_s": t("arith.factorize"),
        "arith.factorize_calls": calls,
        "arith.complete_frac": _ratio(c.get("arith.factorize_complete", 0), calls),
        "graph.build_s": t("graph.build"),
        "graph.edges_total": c.get("graph.edges_total", 0),
        "graph.stats_s": t("graph.stats"),
        "graph.render_s": t("graph.render"),
        "verifier.case_s": t("verifier.case"),
        "verifier.pattern_enum_s": t("verifier.pattern_enum"),
        "verifier.family_graphs": c.get("verifier.family_graphs", 0),
        "cli.table1_s": t("cli.table1"),
        "cli.bytes_out": c.get("cli.bytes_out", 0),
        "bench.other_s": t("bench.pass"),
    }


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"git_rev": _git_rev(), "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "seed": seed}


def _git_rev():
    """HEAD of the repository around the benchmark, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            return next(line.split()[0] for line in packed.splitlines()
                        if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def run_workload(workload, seed, seconds, trace):
    """All passes of one run; returns the result dict (metrics + raw passes)."""
    start = time.monotonic()
    budget = min(seconds, RUN_LIMIT_S)
    problems = []
    setups = []

    def left():
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    for i in range(SETUP_PROBES + 1):
        try:
            r = _spawn(workload, seed, -1 - i, False, True, left())
        except RuntimeError as exc:
            problems.append(f"setup probe: {exc}")
            break
        if i:  # the first probe may compile bytecode; later ones measure setup
            setups.append(r["setup_s"])
    passes, longest = [], 0.0
    t0 = time.monotonic()
    index = 0
    while not problems:
        traced = trace and index % 2 == 1
        t_pass = time.monotonic()
        try:
            passes.append(_spawn(workload, seed, index, traced, False, left()))
        except RuntimeError as exc:
            problems.append(str(exc))
            break
        longest = max(longest, time.monotonic() - t_pass)
        index += 1
        elapsed = time.monotonic() - t0
        if elapsed + longest > budget and (len(passes) >= MIN_PASSES
                                           or elapsed + longest > RUN_LIMIT_S):
            break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes) + len(problems)
    failures = [f"pass {p['pass']}: {f}" for p in passes for f in p["failures"]] + problems
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(seed), "attempted": attempted, "failures": failures,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "op_s")}
                   for p in passes],
        "setup_probes_s": setups, "metrics": {}, "series": {},
    }
    if passes:
        result["env"].update(python=passes[0]["python"], numpy=passes[0]["numpy"])
    metrics, series = result["metrics"], result["series"]
    if untraced:
        best = result["fastest_op_s"] = fastest_ops(untraced)
        cuts = statistics.quantiles(best.values(), n=100, method="inclusive")
        metrics.update(wall_s=sum(best.values()), query_p50_ms=cuts[49] * 1e3,
                       query_p99_ms=cuts[98] * 1e3)
        series.update(wall_s=[p["wall_s"] for p in untraced],
                      setup_s=setups + [p["setup_s"] for p in untraced],
                      peak_rss_mb=[p["rss_mb"] for p in untraced])
        metrics.update(setup_s=statistics.median(series["setup_s"]),
                       peak_rss_mb=statistics.median(series["peak_rss_mb"]))
    if traced:
        rows = [layer_metrics(p) for p in traced]
        for name in rows[0]:
            series[name] = [r[name] for r in rows]
            metrics[name] = statistics.median(series[name])
        if untraced:
            metrics["trace.overhead_frac"] = (
                sum(fastest_ops(traced).values()) / metrics["wall_s"] - 1)
        residual = result["trace_identity_residual_s"] = max(abs(p["residual_s"]) for p in traced)
        if residual > 1e-6:
            failures.append(f"layer self times miss the pass wall time by {residual:.3g} s")
    result["spans"] = [[p["pass"]] + s for p in traced for s in p["spans"]]
    return result


def fastest_ops(passes):
    """Each operation's fastest time over the passes.

    Contention from outside the process slows a pass by up to half, in
    bursts from milliseconds to minutes long.  The fastest time of each
    operation drops most of that, and far more of it than a pass median.
    """
    best = {}
    for p in passes:
        for name, t in p["op_s"].items():
            best[name] = min(t, best.get(name, t))
    return best


def report(result, out=sys.stdout):
    """Human-readable lines: every metric with its unit, and the per-pass
    median, quartiles and count behind it."""
    env = result["env"]
    n_u = sum(not p["traced"] for p in result["passes"])
    n_t = len(result["passes"]) - n_u
    print(f"== {result['workload']}  seed {result['seed']}  passes {n_u} untraced"
          f" + {n_t} traced  rev {env['git_rev'][:12]}  src {env['src_sha256']}"
          f"  nproc {env['nproc']}  cpu {env['cpu']}  python {env['python']}"
          f"  numpy {env.get('numpy', '?')}", file=out)
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"  {'fail_frac':28s} {gate.fail_frac(result['failures'], attempted):12.6g} ratio   "
          f"{failed} of {attempted} answers failed", file=out)
    for f in result["failures"][:20]:
        print(f"    FAIL {f}", file=out)
    units = {**END_TO_END, **LATENCY, **PER_LAYER}
    for name, value in result["metrics"].items():
        line = f"  {name:28s} {value:12.6g} {units[name]:6s}"
        values = result["series"].get(name)
        if values:
            q1, q3 = _quartiles(values)
            line += (f"  per pass: median {statistics.median(values):.6g}"
                     f" quartiles {q1:.6g}..{q3:.6g} n={len(values)}")
        print(line, file=out)
    if "trace_identity_residual_s" in result:
        print(f"  in every traced pass, per-layer self times + bench.other_s = pass "
              f"wall time to within {result['trace_identity_residual_s']:.2g} s", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gkod" / "__init__.py").is_file():
        print(f"bench: no gkod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if args.trace else END_TO_END
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans")
        (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if spans:
            with open(OUT / f"trace-{stem}.jsonl", "w", encoding="utf-8") as fh:
                for pass_id, span_name, start, end, parent in spans:
                    fh.write(json.dumps({"pass": f"{args.seed}-{pass_id}", "name": span_name,
                                         "start": start, "end": end, "parent": parent}) + "\n")
        report(result)
        results.append(result)
    if any(not set(wanted) <= set(r["metrics"]) for r in results):
        print("bench: no pass completed; see the FAIL lines above", file=sys.stderr)
        return 1

    def metrics(r):
        return {k: {"value": r["metrics"][k], "unit": wanted[k]} for k in wanted}

    line = {
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": (metrics(results[0]) if len(results) == 1 else
                    {f"{r['workload']}/{k}": v for r in results
                     for k, v in metrics(r).items()}),
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
