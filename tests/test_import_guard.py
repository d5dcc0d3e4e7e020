"""A bare run loads only the model.

numpy and the instrument packages load where they are used: a network
run through ``run_experiment``, a collective, or ``python -m repro
--help`` imports neither numpy nor the exporters, the profiler or the
sweep machinery.  A fresh interpreter is the only clean ``sys.modules``,
so the run happens in a subprocess.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Modules a bare run must not load.
NOT_LOADED = (
    "numpy",
    "repro.monitor.report",
    "repro.profile.profiler",
    "repro.trace.export",
    "repro.runner.sweep",
)

BARE_RUN = f"""
import json, runpy, sys

import repro
import repro.runner
from repro.runner import ExperimentSpec, ensure_registered, run_experiment

ensure_registered()
result = run_experiment(ExperimentSpec(
    "congestion", shape=(2, 2, 2), rounds=2, payload=256,
).with_extras(senders=7))
assert result.elapsed_ns > 0

from repro import AllReduce, Simulator, build_machine

machine = build_machine(Simulator(), 2, 2, 2)
values = {{c: float(i) for i, c in enumerate(machine.torus.nodes())}}
assert AllReduce(machine, payload_bytes=32).run(values).value == 28.0

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps([m for m in {NOT_LOADED!r} if m in sys.modules]))
"""


def test_bare_run_loads_no_numpy_and_no_instrument_it_does_not_use():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", BARE_RUN], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == []


@pytest.mark.parametrize("package", [
    "repro.trace", "repro.monitor", "repro.profile", "repro.runner",
    "repro.observatory",
])
def test_lazy_packages_export_every_name_in_all(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
