#!/usr/bin/env python3
"""Rebuild ``refs.json``, the reference answers of the benchmark.

For every slot and case it stores the generator seed, the digest of the
input instance (``cases.digest``) and the answer of the current code:
cost and solver id for in-process calls, the compared fields of every CLI
document for cli-small.  A binary case takes the first candidate seed whose instance
has its route's shape (``cases.has_route_shape``) and is dispatched to the
case's solver.  Before writing, it checks the solvers against the
exhaustive oracles on oracle-sized inputs from the same generators, and
every answer against ``evaluate_binary`` or ``evaluate_count``.

    python3 perfbench/make_refs.py      # about a quarter of an hour
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
from bench import CALLS  # noqa: E402
from vcspkit import cli  # noqa: E402
from vcspkit.costs import format_cost  # noqa: E402
from vcspkit.formats import parse_instance, serialize_instance  # noqa: E402
from vcspkit.instances import BinaryInstance, evaluate_binary, evaluate_count  # noqa: E402
from vcspkit.testkit import oracle_binary, oracle_count  # noqa: E402

SEED_TRIES = 200


def solve_checked(case, inst, call):
    """Solve with a public function and re-evaluate the answer."""
    module, name = CALLS[call]
    res = getattr(module, name)(inst)
    evaluate = evaluate_binary if isinstance(inst, BinaryInstance) else evaluate_count
    if evaluate(inst, res.assignment) != res.cost:
        raise SystemExit(f"{case.id}: the assignment does not evaluate to the reported cost")
    if not isinstance(inst, BinaryInstance) and res.cost.is_infinite:
        raise SystemExit(f"{case.id}: infinite optimum on a count instance")
    return res


def generate(workload, slot, case):
    """(seed, instance, result) for the first candidate seed that fits the case."""
    rng = random.Random(f"{workload}/{slot}/{case.id}")
    for _ in range(SEED_TRIES):
        seed = rng.randrange(2**31)
        inst = cases.build(case, seed)
        if case.route is not None and not cases.has_route_shape(case, inst):
            continue
        res = solve_checked(case, inst, call=case.call or "dispatch")
        if case.route is None or res.solver == case.route:
            return seed, inst, res
    raise SystemExit(f"{workload}/{slot}/{case.id}: no seed gives the shape and route")


def run_cli(command, text):
    """The compared fields of the CLI document, from vcspkit.cli in-process."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command[0], "-", *command[1:]])
    finally:
        sys.stdin = stdin
    if code != 0:
        raise SystemExit(f"vcspkit {' '.join(command)} exited with {code}")
    return cases.cli_answer(command, json.loads(out.getvalue()))


def slot_refs(workload, slot):
    refs = {}
    for case in cases.workload_cases(workload):
        if case.kind == "fixture":
            seed, text = None, (ROOT / "fixtures" / f"{case.id}.json").read_text("utf-8")
            inst = parse_instance(text)
        else:
            seed, inst, res = generate(workload, slot, case)
            text = serialize_instance(inst)
        entry = {"seed": seed, "digest": cases.digest(inst)}
        if workload == "cli-small":
            entry["cli"] = {" ".join(c): run_cli(c, text) for c in cases.cli_commands(case)}
        else:
            entry.update(cost=format_cost(res.cost), solver=res.solver)
        refs[case.id] = entry
    return refs


def oracle_checks(workload, slots):
    """Solver versus exhaustive oracle on oracle-sized inputs; returns the
    number of instances compared."""
    compared = 0
    for slot in range(slots):
        for case in cases.workload_cases(workload, small=workload != "cli-small"):
            if case.kind == "fixture":
                if slot > 0:
                    continue
                text = (ROOT / "fixtures" / f"{case.id}.json").read_text("utf-8")
                inst = parse_instance(text)
                answers = [run_cli(c, text) for c in cases.cli_commands(case)]
                costs = [a["cost"] for a in answers if a.get("cost") is not None]
            else:
                _, inst, res = generate(workload, slot, case)
                costs = [format_cost(res.cost)]
            oracle = oracle_binary if isinstance(inst, BinaryInstance) else oracle_count
            want = format_cost(oracle(inst).cost)
            for got in costs:
                if got != want:
                    raise SystemExit(f"{workload}/{slot}/{case.id}: {got} != oracle {want}")
            compared += 1
    return compared


def main():
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {"commit": commit, "slots": cases.SLOTS, "oracle_checks": {}, "workloads": {}}
    for workload in cases.WORKLOADS:
        doc["oracle_checks"][workload] = oracle_checks(workload, cases.SLOTS)
        doc["workloads"][workload] = [slot_refs(workload, s) for s in range(cases.SLOTS)]
        print(f"{workload}: {cases.SLOTS} slots", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
