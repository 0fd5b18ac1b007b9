"""Command-line front end: group spectra, prime graphs, catalog
enumeration, oracle cross-checks and the mechanized case verification.

Each command imports only the layers it runs.  `enumerate` loads arith
and catalog; the other commands add spectra and their own layers: `graph`
the graph layer, `table1` and `verify` the graph layer and the verifier,
and `oracle` the oracle, the only layer that needs numpy.

Exit status: 0 on success (and verified cases), 1 on verification failure,
an oracle mismatch or a request outside gkod's coverage (any
catalog.ParameterError: unknown family or target, unsupported parameters),
2 on usage errors.  The environment variable GK_SEED (decimal or 0x-hex,
either with an optional sign) overrides the oracle sampling seed.
"""

import argparse
import os
import re
import sys
from dataclasses import replace

from . import catalog
from .arith import MAX_PRIME_BOUND, is_prime
from .catalog import GroupId, ParameterError


def parse_selector(family: str, param: int) -> GroupId:
    """The group named by a family selector (A or Alt, L2, G2, ...) and its
    degree or field size.  The family is parsed as a label with a stand-in
    parameter, so any integer param reaches the family's own range check."""
    try:
        g = catalog.parse_label("A1" if family in ("A", "Alt") else f"{family}(1)")
    except ValueError as exc:
        raise ParameterError(f"unknown family selector {family!r}") from exc
    return replace(g, n=param) if g.family == "A" else replace(g, q=param)


def _seed() -> int:
    raw = os.environ.get("GK_SEED")
    if raw is None:
        from .oracle import DEFAULT_SEED
        return DEFAULT_SEED
    m = re.fullmatch(r"[+-]?(?:(0[xX][0-9a-fA-F]+)|[0-9]+)", raw)
    if m is None:
        raise ParameterError(f"GK_SEED must be decimal or 0x-hex, got {raw!r}")
    return int(raw, 16 if m[1] else 10)


def _prime(text: str) -> int:
    """argparse type for --max-prime: a prime up to MAX_PRIME_BOUND, else a
    usage error.  Above it order_of cannot fully factor the orders in S_p,
    and the run time grows about as p^3."""
    p = int(text) if text.isdecimal() else 0
    if p > MAX_PRIME_BOUND:
        raise argparse.ArgumentTypeError(
            f"{p} is above {MAX_PRIME_BOUND}, the largest supported bound")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime")
    return p


def _json_print(obj) -> None:
    import json

    print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_table1(args) -> int:
    from . import graph, spectra, verifier

    rows = [("S", "|S|", "mu(S)", "D(S)")]
    for label in verifier.CASE_PI:
        g = catalog.parse_label(label)
        order = catalog.order_of(g)
        mu = spectra.spectrum_of(g)
        gk = graph.build_gk(order, mu)
        rows.append((label, str(order),
                     ", ".join(str(m) for m in mu),
                     str(graph.degree_pattern(gk))))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def cmd_spectrum(args) -> int:
    from . import spectra

    g = parse_selector(args.family, args.param)
    mu = spectra.spectrum_of(g)
    if args.json:
        _json_print({"group": g.label(), "mu": list(mu.mu), "source": mu.source})
    else:
        print(f"mu({g.label()}) = {mu}  [{mu.source}]")
    return 0


def cmd_graph(args) -> int:
    from . import graph, spectra

    g = parse_selector(args.family, args.param)
    # the spectrum first: it rejects out-of-range parameters without
    # computing an order (|A_n| for large n is slow to factorize)
    mu = spectra.spectrum_of(g)
    order = catalog.order_of(g)
    if not order.is_complete:
        raise ParameterError(
            f"|{g.label()}| has a prime factor above "
            f"{MAX_PRIME_BOUND}; the prime graph needs the "
            "complete factorization")
    gk = graph.build_gk(order, mu)
    if args.dot:
        sys.stdout.write(graph.to_dot(gk))
        return 0
    dp = graph.degree_pattern(gk)
    comps = graph.components(gk, order)
    if args.json:
        _json_print({
            "group": g.label(),
            "graph": gk.json_dict(),
            "degree_pattern": dp.json_dict(),
            "order_components": comps.json_dict(),
        })
        return 0
    t, wit = graph.independence(gk)
    print(f"GK({g.label()}): |pi| = {len(gk.vertices)}, edges = {len(gk.edges)}")
    print(f"  vertices: {', '.join(str(v) for v in gk.vertices)}")
    print(f"  edges:    {', '.join(f'{p}~{q}' for p, q in gk.edges)}")
    print(f"  D = {dp}")
    for i, (ps, m) in enumerate(comps.components, 1):
        print(f"  component {i}: {{{', '.join(str(p) for p in ps)}}}  m_{i} = {m}")
    print(f"  t = {t}, witness {{{', '.join(str(v) for v in wit)}}}")
    if 2 in gk.vertices:
        t2, wit2 = graph.independence_at(gk, 2)
        print(f"  t(2) = {t2}, witness {{{', '.join(str(v) for v in wit2)}}}")
    dec = graph.suzuki_decomposition(gk)
    if dec.ok:
        sizes = ", ".join(f"K{s}" for s in dec.clique_sizes) or "none"
        print(f"  clique components beyond the first: {sizes}")
    else:
        print(f"  clique decomposition violated at {dec.violation}")
    return 0


def cmd_enumerate(args) -> int:
    groups = catalog.enumerate_S_p(args.max_prime)
    labels = [g.label() for g in groups]
    complete = args.max_prime <= catalog.CHARACTERISTIC_BOUND
    agrees = None
    if args.max_prime == 37:
        agrees = groups == catalog.s37_reference()
    if args.json:
        out = {"max_prime": args.max_prime, "complete": complete,
               "assumed_facts": list(catalog.ENUMERATION_FACTS),
               "count": len(labels), "groups": labels}
        if agrees is not None:
            out["agrees_with_published"] = agrees
        _json_print(out)
    else:
        print(f"simple groups S with {args.max_prime} in pi(S) <= "
              f"{{2..{args.max_prime}}}: {len(labels)}")
        for lab in labels:
            print(f"  {lab}")
        print(f"scope: Lie type in characteristic <= "
              f"{catalog.CHARACTERISTIC_BOUND}, field exponents and ranks from "
              f"Zsigmondy's theorem ({'complete' if complete else 'incomplete'})")
        if agrees is not None:
            print("agrees with the published 13-group list"
                  if agrees else "DISAGREES with the published list")
    if agrees is False:
        return 1
    return 0


def cmd_verify(args) -> int:
    from . import verifier

    g = parse_selector(args.family, args.param)
    report = verifier.verify_case(g)
    if args.json:
        _json_print(report.to_json_dict())
    else:
        print(f"case {report.group}: verdict {report.verdict}")
        print(f"  family size {report.family_size} for pattern of {report.group}")
        if report.forced is not None:
            print(f"  pivot {report.pivot}: {report.forced['count']} member(s) "
                  f"carry it; all equal GK(S): {report.forced['all_equal_gk']}")
        alt = report.alternatives
        print(f"  alternatives: {alt['count']} graph(s), all satisfy "
              f"t>=3 and t(2)>=2: {alt['all_vasiliev_applicable']}")
        filt = report.filter
        print(f"  filter by {filt['required']}: divisibility -> "
              f"{filt['divisibility']}, survivors -> {filt['survivors']}")
        print("  assumed facts:")
        for fact in report.assumed_facts:
            print(f"    - {fact}")
    return 0 if report.verdict == verifier.VERIFIED else 1


def cmd_oracle(args) -> int:
    from . import oracle  # the only command that needs numpy

    res = oracle.run_target(args.target, seed=_seed())
    print(f"{res.target}: enumerated {res.enumerated}")
    print(f"  oracle mu:  {res.mu_oracle}")
    print(f"  formula mu: {res.mu_formula}")
    print(f"  match: {res.match}")
    return 0 if res.match else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gk",
        description="Spectra, prime graphs and degree patterns of finite "
                    "simple groups, with a mechanized uniqueness checker.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("table1", help="orders, spectra and degree patterns of "
                                  "the four verified groups")

    sp = sub.add_parser("spectrum", help="maximal element orders mu(S)")
    sp.add_argument("family", help="family selector: A, L2, U3, U4, S4, G2, ...")
    sp.add_argument("param", type=int, help="field size q, or degree n for A")
    sp.add_argument("--json", action="store_true")

    gp = sub.add_parser("graph", help="prime graph and its statistics")
    gp.add_argument("family")
    gp.add_argument("param", type=int)
    fmt = gp.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit DOT text")
    fmt.add_argument("--json", action="store_true")

    ep = sub.add_parser("enumerate", help="simple groups with largest prime "
                                          "divisor p (complete for p <= "
                                          f"{catalog.CHARACTERISTIC_BOUND})")
    ep.add_argument("--max-prime", type=_prime, default=37,
                    help=f"a prime p, 2 <= p <= {MAX_PRIME_BOUND} (default 37)")
    ep.add_argument("--json", action="store_true")

    vp = sub.add_parser("verify", help="mechanized case analysis")
    vp.add_argument("family")
    vp.add_argument("param", type=int)
    vp.add_argument("--json", action="store_true")

    op = sub.add_parser("oracle", help="brute-force spectrum cross-check")
    op.add_argument("target", help="target name; an unknown name lists the "
                                   "known ones")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = {
        "table1": cmd_table1,
        "spectrum": cmd_spectrum,
        "graph": cmd_graph,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }[args.cmd]
    # the one place where a request outside gkod's coverage becomes
    # "gk: ..." and exit 1
    try:
        return handler(args)
    except ParameterError as exc:
        print(f"gk: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
