"""Tests for the consolidated ``Captures`` run API."""

import json

import pytest

from repro.runner import Captures, run_experiment
from repro.runner.spec import ExperimentSpec
from repro.trace.metrics import MetricsRegistry

SPEC = ExperimentSpec("latency", shape=(3, 3, 3), hops=1)
#: An experiment with no recorder of its own: the run-owned registry
#: only sees transport metrics when a flight capture feeds it.
INCAST = ExperimentSpec("congestion", shape=(3, 3, 3))


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


class TestCaptures:
    def test_default_attaches_nothing(self):
        result = run_experiment(SPEC)
        assert result.flight is None
        assert result.profile is None
        assert result.congestion is None
        assert result.registry is not None  # the run-owned registry

    def test_flight_profile_congestion(self):
        caps = Captures(flight=True, profile=True, congestion=True)
        result = run_experiment(SPEC, caps)
        assert result.flight is not None
        assert result.profile is not None
        assert result.congestion is not None

    def test_caller_registry_accumulates(self):
        registry = MetricsRegistry()
        result = run_experiment(SPEC, Captures(registry=registry))
        assert result.registry is registry
        # Caller-owned registry: the serializable snapshot stays empty
        # (it would otherwise double-count across accumulated runs).
        assert result.metrics == {}

    def test_captures_are_passive(self):
        bare = run_experiment(INCAST)
        assert bare.metrics == {}
        for caps in (Captures(profile=True), Captures(congestion=True)):
            assert _canon(run_experiment(INCAST, caps)) == _canon(bare)
        # A flight capture feeds the run-owned registry: the core gains
        # the net.* families and nothing else.
        traced = run_experiment(INCAST, Captures(flight=True)).to_dict()
        metrics = traced.pop("metrics")
        assert metrics
        assert all(name.startswith("net.") for name in metrics)
        core = bare.to_dict()
        del core["metrics"]
        assert traced == core

    def test_flight_metrics_include_absorbed_record(self):
        """A ``latency`` point measures on a private recorder and
        absorbs it into the capture: the capture's ``net.*`` metrics
        count that write too."""
        result = run_experiment(SPEC, Captures(flight=True))
        assert len(result.flight) == 1
        assert result.metrics["net.packets_injected"]["value"] == 1

    def test_truthiness(self):
        assert not Captures()
        assert Captures(flight=True)
        assert Captures(registry=MetricsRegistry())

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Captures().flight = True


class TestLegacyKwargsRejected:
    """The pre-``Captures`` keyword flags are gone: each one is an
    unexpected keyword argument, alone or next to ``captures``."""

    @pytest.mark.parametrize("kwarg", [
        {"flight": True},
        {"profile": True},
        {"congestion": True},
        {"registry": MetricsRegistry()},
    ], ids=["flight", "profile", "congestion", "registry"])
    def test_legacy_kwarg_is_a_type_error(self, kwarg):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(SPEC, **kwarg)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(SPEC, Captures(), **kwarg)

    def test_wrappers_do_not_warn(self, recwarn):
        """The captures the CLI commands ask for (trace, attribute and
        congest: flight; profile: profile) emit no DeprecationWarning."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            traced = run_experiment(SPEC, Captures(flight=True))
            assert traced.flight is not None
            assert traced.congestion is not None
            profiled = run_experiment(SPEC, Captures(profile=True))
            assert profiled.profile is not None
