"""Congestion X-ray: queue timelines, delay decomposition, attribution.

Three views over the flight recorder's record of the network's
head-of-line queues (the flight recorder is the one transport probe):

* :mod:`repro.congestion.view` — per-link-direction queue-depth and
  occupancy timelines in fixed-capacity ring buffers, replayed from
  the record after the run;
* :mod:`repro.congestion.decompose` — per-packet queueing-delay
  decomposition that tiles each delivery's end-to-end latency exactly
  into serialization / wire / HOL wait / retry / through-node /
  endpoint segments with an explicit UNATTRIBUTED residual;
* :mod:`repro.congestion.tree` — the backpressure congestion tree
  (which upstream links feed waits into which bottleneck) and
  sustained HOL-blocking episodes.

Rendering lives in :mod:`repro.congestion.report`.  A run is captured
with ``run_experiment(spec, Captures(flight=True))``
(:mod:`repro.runner.result`); ``result.congestion`` is the view over
its flight record.
"""

from repro.congestion.view import CongestionView, direction_label

__all__ = [
    "CongestionView",
    "direction_label",
]
