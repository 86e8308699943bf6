"""Pinned outputs of the count commands.

One SHA-256 over the exit code and stdout of ``solve-cfc`` (plain, and with
``--dot-forest`` and ``--dot-network``, whose files are hashed too),
``rename`` and ``check --property convex``, run in-process on the fixtures
and on the corpora of acceptance criteria 2, 5 and 9.  A change that alters
any of these outputs must update the constant on purpose.
"""

import functools
import hashlib
import pathlib
import random

from helpers import gen_random_crossfree, gen_random_laminar
from vcspkit import cli
from vcspkit.formats import serialize_instance
from vcspkit.testkit import gen_full_laminar_tree

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# Computed once the flow's search listed each node's artificial arc before
# its run arcs: the assignments of solve-cfc and rename moved, at equal
# cost, on 3 and 3 of the 1,208 inputs; nothing else moved.
_PINNED_OUTPUTS = "be03edb3a029f6fa36f9ad5b0758fe34076117ab5cfd7ab2c29b91dfc03013b4"


def _corpus():
    """The generated instances of criteria 2, 5 and 9, in their order."""
    rng = random.Random(220)
    for kind, gen in (("laminar", gen_random_laminar), ("crossfree", gen_random_crossfree)):
        for count in range(500):
            n = rng.randint(2, 8)
            d = rng.randint(1, 3)
            seed = rng.randrange(2**30)
            if kind == "laminar" and count % 25 == 0:
                yield gen_full_laminar_tree(n, d, seed)
            else:
                yield gen(n, d, seed)
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 6)
        d = rng.randint(1, 3)
        yield gen_random_crossfree(n, d, rng.randrange(2**30))
    for n in (25, 50, 100, 200):
        yield gen_full_laminar_tree(n, 4, seed=9)


def test_count_commands_match_pinned_digest(tmp_path, capsys, monkeypatch):
    # one parser for all 4,816 calls: building it is most of a small call
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    forest, network = tmp_path / "forest.dot", tmp_path / "net.dot"
    paths = sorted(FIXTURES.glob("*.json"))
    for k, inst in enumerate(_corpus()):
        path = tmp_path / f"{k}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        paths.append(path)
    digest = hashlib.sha256()
    for path in paths:
        for args in (
            ["solve-cfc"],
            ["solve-cfc", "--dot-forest", str(forest), "--dot-network", str(network)],
            ["rename"],
            ["check", "--property", "convex"],
        ):
            forest.unlink(missing_ok=True)
            network.unlink(missing_ok=True)
            code = cli.main([args[0], str(path), *args[1:]])
            out, _ = capsys.readouterr()
            drawn = [p.read_text(encoding="utf-8") if p.exists() else None for p in (forest, network)]
            digest.update(repr((args[0], len(args), code, out, drawn)).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_OUTPUTS
