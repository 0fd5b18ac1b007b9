"""Correctness gate: compare a pass's answers with the references fixed
in ``ref/`` and apply the rules every answer must obey.

An answer fails when it differs from its reference, when its operation
raised, when it is missing or unexpected, or when it breaks a rule: an
oracle spectrum must equal the closed form's, and a case verdict must be
``verified``.  ``fail_frac`` is failed answers over answers attempted.
"""

import json
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"


def load_reference(*parts: str) -> dict:
    """``{"answers": {name: value}, ...}`` for the workload parts, merged;
    catalog-cases also carries the table1 bytes from ``ref/table1.txt``."""
    merged = {"answers": {}}
    for part in parts:
        ref = json.loads((REF_DIR / f"{part}.json").read_text(encoding="utf-8"))
        merged["answers"].update(ref.pop("answers"))
        merged.update(ref)
        if part == "catalog-cases":
            text = (REF_DIR / "table1.txt").read_text(encoding="utf-8")
            merged["answers"]["table1"] = {"exit": 0, "stdout": text}
    return merged


def _rule(name: str, value) -> str | None:
    if name.startswith("oracle:") and value["mu"] != value["formula"]:
        return "oracle mu differs from formula mu"
    if name.startswith("verify:") and value["verdict"] != "verified":
        return f"verdict {value['verdict']!r}"
    return None


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def check(answers: dict, raised: dict, expected: dict) -> list:
    """Failures as ``"name: reason"`` strings, sorted by answer name."""
    failures = []
    for name in sorted(set(answers) | set(raised) | set(expected)):
        if name in raised:
            failures.append(f"{name}: raised {raised[name]}")
        elif name not in expected:
            failures.append(f"{name}: unexpected answer")
        elif name not in answers:
            failures.append(f"{name}: missing")
        elif (why := _rule(name, answers[name])) is not None:
            failures.append(f"{name}: {why}")
        elif _canon(answers[name]) != _canon(expected[name]):
            failures.append(f"{name}: differs from reference")
    return failures


def fail_frac(failures: list, attempted: int) -> float:
    return len(failures) / attempted
