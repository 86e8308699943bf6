"""Record the outputs of the count path in one source tree, and compare two
such records.

    python tools/diff_outputs.py run OUT.jsonl
    python tools/diff_outputs.py compare OLD.jsonl NEW.jsonl

``run`` imports vcspkit from the ``src/`` beside this script and writes one
JSON line per case:

- ``solve-cfc``, ``rename`` and ``check --property convex``, run in-process
  through ``cli.main`` on the fixtures and on the corpus of
  ``tests/test_pinned_outputs.py``: the exit code, the document printed and,
  for a document with an assignment, that assignment's cost re-evaluated
  with ``evaluate_count`` against the parsed input;
- ``min_convex_cost_flow`` on the networks of the pinned-digest tests of
  ``tests/test_flow.py``: the amounts and total, or the witness arc.

``compare`` prints each case whose fields moved (nested fields dotted, as
``result.assignment``) and, for a moved assignment, whether it re-evaluates
to its reported cost on both sides.  Only an assignment or a flow's amounts
may move; any other moved field, a case on one side only or a failed
re-evaluation is listed as a fault and makes the exit status 1.  Run it with
the records of a parent and a change to see which optimum each change picks.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = (["solve-cfc"], ["rename"], ["check", "--property", "convex"])
MAY_MOVE = {"assignment", "result.assignment", "amounts"}


def _import_tree():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _cli_cases():
    from test_pinned_outputs import FIXTURES, _corpus
    from vcspkit import cli
    from vcspkit.formats import parse_instance, serialize_instance
    from vcspkit.instances import CountInstance, evaluate_count

    inputs = [(f"fixtures/{p.name}", p.read_text(encoding="utf-8"))
              for p in sorted(FIXTURES.glob("*.json"))]
    inputs += [(f"corpus/{k}", serialize_instance(inst)) for k, inst in enumerate(_corpus())]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        for name, text in inputs:
            path.write_text(text, encoding="utf-8")
            inst = parse_instance(text)
            for args in COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([args[0], str(path), *args[1:]])
                doc = json.loads(out.getvalue())
                found = doc.get("result", doc)
                evaluated = None
                if isinstance(inst, CountInstance) and "assignment" in found:
                    evaluated = str(evaluate_count(inst, tuple(found["assignment"])))
                yield {"case": f"{' '.join(args)} {name}", "code": code, "doc": doc,
                       "evaluated": evaluated}


def _flow_cases():
    from test_flow import _workload_networks
    from helpers import gen_random_network
    from vcspkit.cfc import build_laminar_forest, build_network
    from vcspkit.flow import Flow, min_convex_cost_flow
    from vcspkit.testkit import gen_full_laminar_tree

    nets = [(f"random/{seed}", gen_random_network(seed)) for seed in range(2000)]
    nets += [(f"tree/{n}-{d}-{s}", build_network(build_laminar_forest(gen_full_laminar_tree(n, d, s))))
             for n, d, s in ((5, 2, 0), (12, 3, 1), (20, 4, 2), (40, 3, 3), (60, 4, 4))]
    nets += [(f"workload/{k}", net) for k, net in enumerate(_workload_networks())]
    for name, net in nets:
        out = min_convex_cost_flow(net)
        if isinstance(out, Flow):
            doc = {"amounts": list(out.amounts), "total": str(out.total)}
        else:
            doc = {"witness_arc": out.witness_arc}
        yield {"case": f"flow {name}", "doc": doc}


def run(out_path):
    _import_tree()
    with open(out_path, "w", encoding="utf-8") as out:
        for case in itertools.chain(_cli_cases(), _flow_cases()):
            out.write(json.dumps(case, sort_keys=True) + "\n")


def _fields(doc, prefix=""):
    """The leaves of a document, nested dict keys joined by dots."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return {case["case"]: case for case in map(json.loads, handle)}


def _reported(case):
    doc = case["doc"]
    return doc.get("result", doc).get("cost")


def compare(old_path, new_path):
    old, new = _read(old_path), _read(new_path)
    faults = [f"only in {old_path}: {name}" for name in old if name not in new]
    faults += [f"only in {new_path}: {name}" for name in new if name not in old]
    moved = 0
    for name, before in old.items():
        after = new.get(name)
        if after is None:
            continue
        a = dict(_fields({"code": before.get("code"), **before["doc"]}))
        b = dict(_fields({"code": after.get("code"), **after["doc"]}))
        fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if not fields:
            continue
        moved += 1
        line = f"moved {name}: {', '.join(fields)}"
        if after.get("evaluated") is not None:
            holds = all(c["evaluated"] == _reported(c) for c in (before, after))
            line += f"; re-evaluates to its cost: {'yes' if holds else 'NO'}"
            if not holds:
                faults.append(f"re-evaluation differs: {name}")
        print(line)
        faults += [f"{field} moved: {name}" for field in fields if field not in MAY_MOVE]
    print(f"{len(old)} cases, {moved} moved")
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "run":
        run(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
