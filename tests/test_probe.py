"""The benchmark's per-layer probe still finds every function it wraps."""

import pathlib

from vcspkit.testkit import fixtures, gen_profile
from vcspkit.triangles import Scheme

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_probe_wraps_every_layer_and_its_counters_apply(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probe
    from vcspkit import binary_solvers, cfc, renaming

    table = fixtures()
    with probe.Probe() as p:
        # one call per wrapped layer, so that each work counter runs
        binary_solvers.dispatch(gen_profile(4, 2, {">", "1"}, Scheme.MAXCSP, 0))
        # the route runs through SOLVERS, where the probe times it
        assert "binary_solvers.solver.matching-cardinality" in {span[0] for span in p.spans}
        inst = table["maxsat-overlap"]
        cfc.check_family([a.members for a in inst.sets], inst.universe())
        cfc.crossfree_to_laminar(table["sat-blocks"])
        cfc.solve_cfc(table["pair-grid"])
        renaming.solve_renamable(inst)
    assert p.absent() == []
    assert p.broken == set()
