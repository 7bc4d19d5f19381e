"""Correctness checks for the reports the workloads produce.

A job passes when its exit code is 0, its report holds no NaN or inf,
and the report matches its reference:

* ``analyze --catalog`` reports byte for byte against ``tests/golden/``;
* every other report against ``reference.json``, recorded at the seed
  commit with ``record.py``: strings, booleans, integers and the key
  structure exactly, floats within ATOL + RTOL·|ref|, and values that
  depend on the workload seed against the bounds in ``SEEDED``.  The
  echo of the settings (``config``) is left out of this comparison.

A job listed in ``KNOWN_DEFECTS`` that fails the recorded way counts as
failed but does not make the run incorrect; once the defect is fixed the
job has to exit 0 and show the fields recorded with it.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# the tightest tolerance the acceptance tests put on a residual
# (criterion 1: operator round trip below 1e-9), and a relative one for
# O(1) values
ATOL = 1e-9
RTOL = 1e-6

# Values that move with the workload seed, as "job-glob:path-glob" ->
# rule.  Bounds are those of the acceptance tests (criteria 1-3) and of
# the CLI's own checks; "$int" accepts any integer.
SEEDED = {
    "transform-*:seed": {"$int": True},
    "transform-*:results.residuals.*": {"$max": 1e-8},
    "transform-bounded:results.norm_z": {"$max": 1 + 1e-12},
    "transform-abs:results.b_psd_min_eig": {"$min": -1e-10},
    "transform-calc:results.residual_vs_a": {"$max": 1e-8},
    "experiment-resolvent:seed": {"$int": True},
    "battery-*:worst.axiom": {"$max": 1e-10},
    "battery-*:worst.abs_axiom": {"$max": 1e-10},
    "battery-*:worst.roundtrip": {"$max": 1e-9},
    "battery-*:worst.projection": {"$max": 1e-10},
    "battery-*:worst.bounded_norm": {"$max": 1 + 1e-12},
    "battery-*:worst.bounded_recon": {"$max": 1e-8},
    "battery-*:worst.polar": {"$max": 1e-9},
    "battery-*:worst.calculus": {"$max": 1e-8},
}

# Jobs that fail at the seed commit for a known reason.  They stay in the
# workload so the defect shows in fail_ratio.  "fields" is what the report
# must say once the defect is fixed: the a and b symbols of 1/x are
# bounded and continuous, so their operators are regular.
KNOWN_DEFECTS = {
    f"readback-one_over_x.{key}": {
        "stderr": "is not a declared puncture",
        "reason": "symbol_to_dict drops the fills, so the emitted symbol "
                  "does not read back: its pieces break at 0.0, which is "
                  "then no declared puncture",
        "fields": {"results.graph_regular": True, "results.regular": True},
    }
    for key in ("a_symbol", "b_symbol")
}


def comparable(report):
    """The part of a parsed report that is compared with its reference: all
    but the echo of the settings, which a later change may extend."""
    if isinstance(report, dict):
        return {k: v for k, v in report.items() if k != "config"}
    return report


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def seeded_rule(job: str, path: str):
    for pattern, rule in SEEDED.items():
        jpat, ppat = pattern.split(":", 1)
        if fnmatch.fnmatchcase(job, jpat) and fnmatch.fnmatchcase(path, ppat):
            return rule
    return None


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def nonfinite(value, path="") -> list:
    """Paths of NaN or infinite numbers in a parsed report."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path or "."]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in nonfinite(v, _join(path, k))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in nonfinite(v, _join(path, i))]
    return []


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def close(a, b) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _apply_rule(actual, rule, path) -> list:
    if not _is_number(actual):
        return [f"{path}: expected a number, got {actual!r}"]
    if "$int" in rule and not isinstance(actual, int):
        return [f"{path}: expected an integer, got {actual!r}"]
    if "$max" in rule and not actual <= rule["$max"]:
        return [f"{path}: {actual!r} above {rule['$max']!r}"]
    if "$min" in rule and not actual >= rule["$min"]:
        return [f"{path}: {actual!r} below {rule['$min']!r}"]
    return []


def compare(actual, expected, path="") -> list:
    """Differences between a parsed report and its reference tree."""
    if isinstance(expected, dict) and expected and all(
            k.startswith("$") for k in expected):
        return _apply_rule(actual, expected, path)
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected
                for p in compare(actual[k], expected[k], _join(path, k))]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, _join(path, i))]
    if isinstance(expected, float) and _is_number(actual):
        return [] if close(actual, expected) else [
            f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _field(tree, dotted):
    for key in dotted.split("."):
        tree = tree[key]
    return tree


def check(outcome, spec: dict, root: str) -> tuple:
    """(passed, known_defect, problems) of one job outcome.

    ``root`` is the checkout the golden files are read from.
    """
    known = spec.get("known_defect")
    if outcome.code != 0:
        if known and outcome.code == known["code"] and known["stderr"] in outcome.error:
            return False, True, []
        return False, False, [f"exit {outcome.code}: {outcome.error[-300:]}"]
    if outcome.report is None:
        return False, False, ["no report written"]
    try:
        report = json.loads(outcome.report)
    except ValueError as err:
        return False, False, [f"report is not JSON: {err}"]
    problems = [f"{p}: not finite" for p in nonfinite(report)]
    if "golden" in spec:
        with open(os.path.join(root, spec["golden"]), "rb") as fh:
            if fh.read() != outcome.report:
                problems.append(f"differs from {spec['golden']}")
    if "report" in spec:
        problems += compare(comparable(report), spec["report"])
    for dotted, want in spec.get("fields", {}).items():
        try:
            got = _field(report, dotted)
        except (KeyError, TypeError):
            got = None
        if got != want:
            problems.append(f"{dotted}: {got!r} != {want!r}")
    return not problems, False, problems
