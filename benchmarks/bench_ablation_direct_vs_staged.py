"""Ablation — direct all-neighbour exchange vs staged forwarding (Fig. 8a/b).

On a commodity cluster, the staged 6-message scheme (forwarding through
dimension order) beats 26 direct messages because per-message overhead
dominates.  On Anton the preference *inverts*: a single round of direct
fine-grained messages avoids both the extra communication rounds and
the data-recombination work forwarding requires (Fig. 8b's local
copies), so it finishes sooner even though it sends more packets.

Both schemes run symmetrically on every node; completion is when every
node holds every neighbour's chunk.
"""

from conftest import get_scale, once

from repro.analysis import render_table
from repro.asic import build_machine
from repro.asic.slice_ import poll_step, run_programs, work_step, write_step
from repro.baselines import ClusterNetwork
from repro.constants import DDR2_INFINIBAND
from repro.engine import Simulator

#: Bytes each node must deliver to each of its 26 neighbours.
CHUNK = 256

#: Tensilica cost to repack one received chunk before forwarding it in
#: the next stage (the local copy/permute work direct remote writes
#: eliminate, Fig. 8b).
REPACK_NS = 60.0


def _anton(direct: bool, shape):
    sim = Simulator()
    machine = build_machine(sim, *shape)
    torus = machine.torus

    def direct_node(c):
        neighbors = torus.moore_neighbors(c)
        return [write_step(m, "slice0", counter_id="d", payload_bytes=CHUNK)
                for m in neighbors] + [poll_step("d", len(neighbors))]

    def staged_node(c):
        steps = []
        # Round 1 (X): 9 chunks each way — own data plus the data
        # destined for the YZ fan behind each X neighbour; recombine for
        # Y.  Round 2 (Y): 3 chunks each way (own X-line's worth);
        # recombine for Z.  Round 3 (Z): 1 chunk each way.
        for r, (dim, chunks, repack) in enumerate(
                (("x", 9, 18), ("y", 3, 6), ("z", 1, 0)), 1):
            for sign in (1, -1):
                m = torus.neighbor(c, dim, sign)
                steps += [write_step(m, "slice0", counter_id=f"s{r}",
                                     payload_bytes=CHUNK)] * chunks
            steps.append(poll_step(f"s{r}", 2 * chunks))
            if repack:
                steps.append(work_step(repack * REPACK_NS))
        return steps

    program = direct_node if direct else staged_node
    end = run_programs(sim, [(machine.node(c).slices[0], program(c))
                             for c in torus.nodes()])
    return end, machine.network.packets_injected / torus.num_nodes


def _cluster(direct: bool):
    """One representative node's exchange on the InfiniBand model
    (messages per node: 26 direct vs 6 staged)."""
    sim = Simulator()
    net = ClusterNetwork(sim, 27, DDR2_INFINIBAND)

    def run():
        if direct:
            for peer in range(1, 27):
                yield from net.send(0, peer, CHUNK, "d")
            yield net.recv(1, "d", 1)
        else:
            for r, mult in ((1, 9), (2, 3), (3, 1)):
                for peer in (1, 2):
                    yield from net.send(0, peer, mult * CHUNK, f"r{r}")
                # Forwarding dependency: wait a full message latency
                # before the next round can use the received data.
                yield sim.timeout(net.wire_ns(mult * CHUNK)
                                  + DDR2_INFINIBAND.recv_overhead_ns)

    sim.run(until=sim.process(run()))
    return sim.now


def bench_ablation_direct_vs_staged(benchmark, publish, record):
    shape = (4, 4, 4) if get_scale() == "quick" else (8, 8, 8)

    def run():
        return (_anton(True, shape), _anton(False, shape),
                _cluster(True), _cluster(False))

    (a_direct, msgs_d), (a_staged, msgs_s), c_direct, c_staged = once(benchmark, run)
    text = render_table(
        "Ablation — 26-neighbour exchange: direct vs staged (Fig. 8), µs",
        ["network", "direct (26 msgs)", "staged (6 msgs, 3 rounds)"],
        [
            ["Anton (all nodes, symmetric)", a_direct / 1000, a_staged / 1000],
            ["InfiniBand cluster (per node)", c_direct / 1000, c_staged / 1000],
        ],
    )
    text += (
        f"\n\nAnton messages/node: direct {msgs_d:.0f} vs staged {msgs_s:.0f}; "
        "the preference inverts: Anton favours the single direct round "
        "(fine-grained messages are cheap, no recombination work); the "
        "cluster favours staging (message count dominates)"
    )
    publish("ablation_direct_vs_staged", text)
    record("ablation_direct_vs_staged", "anton_direct_ns", a_direct, "ns",
           shape=list(shape), chunk_bytes=CHUNK)
    record("ablation_direct_vs_staged", "anton_staged_ns", a_staged, "ns",
           shape=list(shape), chunk_bytes=CHUNK)
    record("ablation_direct_vs_staged", "cluster_direct_ns", c_direct, "ns",
           chunk_bytes=CHUNK)
    record("ablation_direct_vs_staged", "cluster_staged_ns", c_staged, "ns",
           chunk_bytes=CHUNK)
    assert a_direct < a_staged, "Anton must prefer direct exchange"
    assert c_staged < c_direct, "the cluster must prefer staged exchange"
