"""Property-based test: the engine profiler is a passive observer.

The profiler wraps event execution with wall-clock accounting but
reads no simulated state, schedules nothing, and occupies no queue
entry — so a profiled run and a bare run of the
same experiment must agree on *every* simulated observable, exactly.
The same holds one level up: ``run_experiment(Captures(profile=True))`` and the
sweep telemetry must leave serialized result/checkpoint bytes
untouched (they live entirely outside the byte-stable payload).
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic import build_machine
from repro.bench.results import canonical_json
from repro.comm.collectives import AllReduce
from repro.engine import Simulator
from repro.profile import EngineProfiler, use_profiling
from repro.runner.result import Captures, run_experiment
from repro.runner.spec import ExperimentSpec, ensure_registered
from repro.runner.sweep import run_sweep
from tests.conftest import run_exchange

ensure_registered()


def _fingerprint(sim, machine):
    net = machine.network
    return (
        sim.now,
        sim.events_executed,
        net.packets_injected,
        net.packets_delivered,
        net.packets_completed,
        net.link_traversals,
    )


coords = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@given(coords, st.integers(0, 128))
@settings(max_examples=20, deadline=None)
def test_profiled_exchange_bit_identical(dst, payload):
    """One-way exchange: profiling changes nothing observable."""
    results = []
    for profiled in (False, True):
        sim = Simulator()
        profiler = EngineProfiler().attach(sim) if profiled else None
        machine = build_machine(sim, 3, 3, 3)
        src = machine.node((0, 0, 0)).slice(0)
        rcv = machine.node(dst).slice(1 if dst == (0, 0, 0) else 0)
        elapsed = run_exchange(sim, src, rcv, payload_bytes=payload)
        if profiler is not None:
            assert profiler.events_total == sim.events_executed
        results.append((elapsed, _fingerprint(sim, machine)))
    assert results[0] == results[1]


@given(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 2)]),
       st.integers(0, 256))
@settings(max_examples=10, deadline=None)
def test_profiled_allreduce_bit_identical(shape, payload_bytes):
    """A full collective stays bit-identical, including through the
    ambient ``use_profiling()`` entry point (construction hooks)."""
    results = []
    for profiled in (False, True):
        if profiled:
            with use_profiling() as profiler:
                sim = Simulator()
                machine = build_machine(sim, *shape)
                report = AllReduce(machine, payload_bytes=payload_bytes).run()
            assert profiler.events_total == sim.events_executed
        else:
            sim = Simulator()
            machine = build_machine(sim, *shape)
            report = AllReduce(machine, payload_bytes=payload_bytes).run()
        results.append((report.elapsed_ns, _fingerprint(sim, machine)))
    assert results[0] == results[1]


@given(st.integers(1, 3), st.integers(0, 128), st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_run_result_bytes_identical_with_profile(hops, payload, seed):
    """The serializable core of a RunResult — what caches, checkpoints,
    and result sets persist — is byte-for-byte the same whether or not
    the run was profiled."""
    spec = ExperimentSpec(
        "latency", shape=(3, 3, 3), rounds=1,
        hops=hops, payload=payload, seed=seed,
    )
    bare = run_experiment(spec)
    profiled = run_experiment(spec, Captures(profile=True))
    assert profiled.profile is not None
    assert canonical_json(bare.to_dict()) == canonical_json(
        profiled.to_dict()
    )


def _checkpoint_bytes(out_dir):
    """Every persisted sweep artifact except the live status file."""
    out = {}
    for root, _, files in os.walk(out_dir):
        for fname in sorted(files):
            if fname == "status.json":
                continue
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = fh.read()
    return out


def test_sweep_checkpoint_bytes_identical_with_telemetry(tmp_path):
    """Telemetry is parent-side wall-clock bookkeeping only: every
    persisted sweep artifact (manifest, per-point checkpoints, result
    set, summary minus wall-clock) is byte-identical with it on or
    off.  Only the live ``status.json`` is telemetry's own."""
    from repro.profile.telemetry import SweepTelemetry

    specs = [
        ExperimentSpec("latency", shape=(3, 3, 3), rounds=1,
                       hops=1, payload=32 * i)
        for i in range(3)
    ]
    dirs = []
    for telemetry_on in (False, True):
        out_dir = str(tmp_path / ("with" if telemetry_on else "without"))
        tel = (
            SweepTelemetry(total=len(specs), out_dir=out_dir)
            if telemetry_on else None
        )
        report = run_sweep(specs, jobs=1, out_dir=out_dir, telemetry=tel)
        assert report.ok
        dirs.append(out_dir)

    bare, telemetered = (_checkpoint_bytes(d) for d in dirs)
    assert set(bare) == set(telemetered)
    for rel in bare:
        if rel == "summary.json":
            # wall_s is wall-clock and may differ; everything else
            # in the summary must not.
            a, b = (json.loads(doc[rel]) for doc in (bare, telemetered))
            a.pop("wall_s"), b.pop("wall_s")
            assert a == b
        else:
            assert bare[rel] == telemetered[rel], f"{rel} differs"
    assert not os.path.exists(os.path.join(dirs[0], "status.json"))
    assert os.path.exists(os.path.join(dirs[1], "status.json"))
