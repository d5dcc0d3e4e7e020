"""Ablation — multicast vs repeated unicast for position distribution.

§III.A: "Using multicast significantly reduces both sender overhead
and network bandwidth for data that must be sent to multiple
destinations."  Positions go to up to 17–19 HTIS units (§IV.B.1); this
ablation sends one node's worth of position packets to its import set
both ways and compares sender-side time and link traversals.
"""

from conftest import get_scale, once

from repro.analysis import render_table
from repro.asic import build_machine
from repro.asic.slice_ import Join, Steps, write_step
from repro.engine import Simulator
from repro.md.decomposition import Decomposition
from repro.md.forcefield import ForceField
from repro.md.system import synthetic_dhfr
from repro.network.multicast import compile_pattern

ATOMS_PER_NODE = 46  # DHFR / 512


def _run(use_multicast: bool, shape):
    sim = Simulator()
    machine = build_machine(sim, *shape)
    atoms = synthetic_dhfr(atoms=2000 if shape != (8, 8, 8) else 23558)
    decomp = Decomposition(
        atoms, machine.torus, import_radius=6.5, import_volume_threshold=0.4
    )
    src_node = machine.torus.coord((0, 0, 0))
    imports = decomp.import_nodes(src_node)
    for m in imports:
        machine.node(m).htis.define_buffer("pos", src_node, ATOMS_PER_NODE)
    slices = machine.node(src_node).slices
    pid = None
    if use_multicast:
        tree = compile_pattern(machine.torus, src_node, {m: ["htis"] for m in imports})
        pid = machine.network.register_pattern(tree)

    if use_multicast:
        sends = [write_step(src_node, "htis", counter_id="pos",
                            payload_bytes=32, pattern_id=pid)]
    else:
        sends = [write_step(m, "htis", counter_id="pos", payload_bytes=32)
                 for m in imports]
    join = Join(sim, 4 + len(imports))
    for k in range(4):
        packets = ATOMS_PER_NODE // 4 + (1 if k < ATOMS_PER_NODE % 4 else 0)
        Steps(slices[k], sends * packets, join.ended).start()
    for m in imports:
        machine.node(m).htis.counter("pos").on_target(ATOMS_PER_NODE, join.ended, ())
    return sim.run(until=join.done), machine.network.link_traversals, len(imports)


def bench_ablation_multicast(benchmark, publish, record):
    shape = (4, 4, 4) if get_scale() == "quick" else (8, 8, 8)

    def run():
        return _run(True, shape), _run(False, shape)

    (t_mc, trav_mc, fanout), (t_uc, trav_uc, _) = once(benchmark, run)
    text = render_table(
        f"Ablation — multicast vs unicast position distribution "
        f"(46 atoms to {fanout} HTIS units)",
        ["scheme", "completion µs", "link traversals"],
        [
            ["multicast (Anton)", t_mc / 1000, float(trav_mc)],
            ["repeated unicast", t_uc / 1000, float(trav_uc)],
        ],
    )
    text += (
        f"\n\nmulticast saves {t_uc / t_mc:.1f}x sender-limited time and "
        f"{trav_uc / trav_mc:.1f}x link bandwidth"
    )
    publish("ablation_multicast", text)
    record("ablation_multicast", "multicast_completion_ns", t_mc, "ns",
           shape=list(shape))
    record("ablation_multicast", "unicast_completion_ns", t_uc, "ns",
           shape=list(shape))
    record("ablation_multicast", "multicast_link_traversals",
           float(trav_mc), "traversals", shape=list(shape))
    record("ablation_multicast", "unicast_link_traversals",
           float(trav_uc), "traversals", shape=list(shape))
    assert t_mc < t_uc
    assert trav_mc < trav_uc
