"""Check the benchmark against its own declaration.

    python benchmarks/ledger/selfcheck.py [--static]

Static: ``BENCHMARK.json`` has exactly the contract's keys, names match
``[A-Za-z0-9][A-Za-z0-9_.-]*`` and are used once, there are at most 8
workloads, 16 end-to-end and 128 per-layer metrics, every bound is at
most 0.25 and ``setup_s`` is declared. Dynamic (skipped with
``--static``): every workload's ``--quick`` run, both passes, prints
every declared name with its unit and nothing undeclared, and its
result object carries the same names.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import harness

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
LINE = re.compile(r"(\S+)  (\S+) = (\S+) (\S+)(?:  \(wall clock .*\))?\Z")


def static_errors(declared: dict) -> list[str]:
    errors = []
    if set(declared) != KEYS:
        errors.append(f"keys are {sorted(declared)}, want {sorted(KEYS)}")
    seen: set[str] = set()
    for section, (low, high) in LIMITS.items():
        entries = declared.get(section, [])
        if not low <= len(entries) <= high:
            errors.append(f"{section}: {len(entries)} entries, want "
                          f"{low}..{high}")
        for entry in entries:
            name = entry.get("name", "")
            if not NAME.match(name):
                errors.append(f"{section}: bad name {name!r}")
            if name in seen:
                errors.append(f"{section}: name {name!r} used twice")
            seen.add(name)
            if section == "workloads":
                if set(entry) != {"name", "why"} or len(entry["why"]) > 200 \
                        or "\n" in entry["why"]:
                    errors.append(f"workload {name!r}: wants a name and a "
                                  f"one-line why of at most 200 characters")
                continue
            if not UNIT.match(entry.get("unit", "")):
                errors.append(f"{name}: bad unit {entry.get('unit')!r}")
            if entry.get("better") not in ("lower", "higher"):
                errors.append(f"{name}: better must be lower or higher")
            wanted = {"name", "unit", "better"}
            if section == "end_to_end":
                wanted.add("bound")
                if not 0 < entry.get("bound", 0) <= 0.25:
                    errors.append(f"{name}: bound must be in (0, 0.25]")
            if set(entry) != wanted:
                errors.append(f"{name}: keys are {sorted(entry)}")
    setup = [m for m in declared.get("end_to_end", [])
             if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    if [w["name"] for w in declared.get("workloads", [])] \
            != list(harness.WORKLOADS):
        errors.append("workloads differ from harness.WORKLOADS")
    if not isinstance(declared.get("run_seconds"), int) \
            or not 1 <= declared["run_seconds"] <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    return errors


def dynamic_errors(declared: dict) -> list[str]:
    errors = []
    for workload in harness.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[section]}
            done = subprocess.run(
                [sys.executable, str(harness.LEDGER_DIR / "run.py"),
                 "--workload", workload, "--seed", "1", "--quick",
                 "--trace", str(trace)],
                cwd=harness.ROOT, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                errors.append(f"{label}: exit {done.returncode}: "
                              f"{done.stderr.strip()[-300:]}")
                continue
            printed = {}
            for line in lines[:-1]:
                match = LINE.match(line)
                if match and match.group(1) == workload:
                    printed[match.group(2)] = match.group(4)
            if printed != units:
                errors.append(
                    f"{label}: printed names/units differ from the "
                    f"declaration: {sorted(set(printed) ^ set(units))}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if set(result["metrics"]) != set(units):
                errors.append(f"{label}: result metrics differ from the "
                              f"declaration")
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: {result['failed']} failed "
                              f"operation(s)")
            print(f"ok  {label}: {len(printed)} metrics, "
                  f"{result['attempted']} operations")
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    declared = harness.load_declaration()
    errors = static_errors(declared)
    if "--static" not in argv and not errors:
        harness.bootstrap()
        errors += dynamic_errors(declared)
    for error in errors:
        print(f"FAIL  {error}")
    if not errors:
        print("selfcheck passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
