"""Run a named experiment with the congestion X-ray attached.

This is the machinery behind ``python -m repro congest <experiment>``:
it dispatches an :class:`~repro.runner.spec.ExperimentSpec` through
the experiment registry with the flight recorder installed (the one
transport probe: per-packet causal spans, from which the
decomposition, the congestion tree and the per-link timelines are all
derived) and hands back the unified
:class:`~repro.runner.result.RunResult`, whose ``flight`` attribute
carries the live recorder and whose ``congestion`` attribute is the
:class:`~repro.congestion.view.CongestionView` over it.

Kept out of ``repro.congestion.__init__`` for the same reason as
:mod:`repro.trace.capture`: the registered experiments import the
analysis/asic stack, and importing this lazily keeps the package
cycle-free.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.result import Captures, RunResult, run_experiment
from repro.runner.spec import ExperimentSpec, experiment_names

#: Experiments the congest CLI can capture (same gate as the trace
#: CLI: per-packet records must stay proportionate to the run).
EXPERIMENTS = experiment_names(traceable=True)


def run_congested(
    experiment: str,
    shape: tuple[int, int, int] = (4, 4, 4),
    rounds: int = 2,
    payload: int = 0,
    seed: int = 0,
    hops: Optional[int] = None,
    senders: Optional[int] = None,
) -> RunResult:
    """Capture one experiment with the congestion X-ray on.

    ``senders`` (when given) rides along as a spec extra — the
    ``congestion`` incast experiment reads it to widen the many-to-one
    fan-in (e.g. 26 for the full 3x3x3 26-to-1 incast).
    """
    spec = ExperimentSpec(
        experiment=experiment,
        shape=shape,
        rounds=rounds,
        payload=payload,
        seed=seed,
        hops=hops,
    )
    if senders is not None:
        spec = spec.with_extras(senders=int(senders))
    return run_experiment(spec, Captures(flight=True, congestion=True))
