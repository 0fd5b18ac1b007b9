"""Regenerate the reference answers in ``bench/ref/`` from the current code.

    PYTHONPATH=src python3 bench/make_refs.py

References are answers the code gave when they were fixed, so run this
only when an answer is meant to change, and review the diff.  Before
writing, the answers are checked against sources that do not come from
the workload code: the golden table1 bytes, the published 13-group list
for p = 37, the four verdicts, the pattern-family sizes and the rule that
every oracle spectrum equals its closed form.
"""

import json
import sys
from pathlib import Path

import gate
import spans
import workloads
from gkod import catalog

ROOT = Path(__file__).resolve().parent.parent
FAMILY_SIZES = {"S4(31)": 13, "U3(27)": 17, "G2(11)": 30, "U4(31)": 921}


def _answers(part, ref):
    ops = workloads.ops((part,), workloads.pass_rng(part, 0, 0), ref)
    raw, raised, _ = workloads.run_ops(ops, spans.NULL)
    if raised:
        raise SystemExit(f"{part}: operations raised: {raised}")
    return dict(sorted(workloads.answers(ops, raw).items()))


def _require(ok, what):
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def main():
    refs = {}
    for name in ("oracle-xcheck", "alt-spectra", "catalog-cases"):
        refs[name] = {"answers": _answers(name, None)}
    queries = workloads.graph_queries()
    refs["graph-queries"] = {"queries": [[g.family, g.n, g.q] for g in queries]}
    refs["graph-queries"]["answers"] = _answers("graph-queries", refs["graph-queries"])

    cat = refs["catalog-cases"]["answers"]
    table1 = cat.pop("table1")
    golden = (ROOT / "tests" / "golden" / "table1.txt").read_text(encoding="utf-8")
    _require(table1 == {"exit": 0, "stdout": golden}, "table1 bytes")
    _require(cat["enumerate:37"] == [g.label() for g in catalog.s37_reference()],
             "the published 13 groups at p = 37")
    for label, size in FAMILY_SIZES.items():
        _require(cat[f"verify:{label}"]["verdict"] == "verified", f"verdict {label}")
        _require(cat[f"pattern:{label}"]["size"] == size, f"family size {label}")
    for name, value in refs["oracle-xcheck"]["answers"].items():
        _require(value["mu"] == value["formula"], f"{name} oracle = formula")

    for name, ref in refs.items():
        path = gate.REF_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    (gate.REF_DIR / "table1.txt").write_text(table1["stdout"], encoding="utf-8")
    print(f"wrote {len(refs)} reference files to {gate.REF_DIR}")


if __name__ == "__main__":
    sys.exit(main())
