"""Unified experiment API: specs, registry, results, cache, sweeps.

The runner package is the repo's front door for executing
simulations.  Everything that used to be a private string-to-function
table now goes through:

* :class:`ExperimentSpec` / :func:`register_experiment` — name and
  parameterize a run (``repro.runner.spec``);
* :class:`RunResult` / :func:`run_experiment` — execute one spec and
  get the one result type back (``repro.runner.result``);
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  (spec, code fingerprint) (``repro.runner.cache``);
* :func:`run_sweep` / :func:`parse_grid` / :func:`expand_grid` —
  parallel, cached, resumable grids of runs (``repro.runner.sweep``).
"""

from repro._lazy import lazy_exports

# A run through ``run_experiment`` loads neither the cache nor the
# sweep machinery (and the monitor verdicts a sweep carries).
__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("ResultCache", "code_fingerprint", "default_cache_dir"),
    "result": (
        "Captures", "Measurement", "Outcome", "RunResult", "run_experiment",
    ),
    "spec": (
        "ExperimentDef", "ExperimentSpec", "ensure_registered",
        "experiment_names", "get_experiment", "register_experiment",
    ),
    "sweep": (
        "SweepPoint", "SweepReport", "expand_grid", "parse_grid",
        "run_sweep", "sweep_key",
    ),
})

__all__ = [
    "Captures",
    "ExperimentDef",
    "ExperimentSpec",
    "Measurement",
    "Outcome",
    "ResultCache",
    "RunResult",
    "SweepPoint",
    "SweepReport",
    "code_fingerprint",
    "default_cache_dir",
    "ensure_registered",
    "expand_grid",
    "experiment_names",
    "get_experiment",
    "parse_grid",
    "register_experiment",
    "run_experiment",
    "run_sweep",
    "sweep_key",
]
