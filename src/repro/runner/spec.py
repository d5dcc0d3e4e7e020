"""The one way to name and parameterize a run: :class:`ExperimentSpec`.

Every entry point names its run with one spec and dispatches it
through one registry:

* :class:`ExperimentSpec` — a frozen, hashable description of one run
  (experiment name, machine shape, rounds, payload, seed, optional hop
  count, plus experiment-specific ``extras``).  Its canonical JSON form
  is the identity used by the result cache and the sweep checkpoints.
* :func:`register_experiment` — decorator that publishes a runner
  function ``(spec) -> Outcome`` under a name.
  :func:`~repro.runner.result.run_experiment` (behind every CLI
  command, the sweep runner and the tier-1 model pins) dispatches
  through :func:`get_experiment`.

The registry itself imports nothing heavy; experiment implementations
live in :mod:`repro.runner.experiments` and lazy-import the analysis
stack inside their bodies, so importing this module stays cheap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace as _dc_replace
from typing import Any, Callable, Optional, Union

from repro.bench.results import canonical_json

#: Extra values must stay JSON-scalar so the spec's canonical form is
#: stable across processes and Python versions.
_SCALAR = (str, int, float, bool, type(None))

Shape = tuple[int, int, int]


def _coerce_shape(shape: Any) -> Shape:
    try:
        x, y, z = (int(v) for v in shape)
    except (TypeError, ValueError):
        raise ValueError(f"shape must be three ints, got {shape!r}") from None
    if min(x, y, z) < 1:
        raise ValueError(f"shape dimensions must be >= 1, got {(x, y, z)}")
    return (x, y, z)


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one simulation run.

    Two specs with the same field values are equal, hash equal, and
    serialize to byte-identical canonical JSON — which is exactly what
    the content-addressed result cache keys on.
    """

    experiment: str
    shape: Shape = (4, 4, 4)
    rounds: int = 2
    payload: int = 0
    seed: int = 0
    #: Network hops for point experiments (``None`` means "the
    #: experiment's own default sweep", e.g. Fig. 5 walks every hop).
    hops: Optional[int] = None
    #: Experiment-specific parameters as a sorted tuple of
    #: ``(name, scalar)`` pairs; use :meth:`with_extras` to build.
    extras: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise ValueError("experiment name must be a non-empty string")
        object.__setattr__(self, "shape", _coerce_shape(self.shape))
        if int(self.rounds) < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "rounds", int(self.rounds))
        if int(self.payload) < 0:
            raise ValueError(f"payload must be >= 0, got {self.payload}")
        object.__setattr__(self, "payload", int(self.payload))
        object.__setattr__(self, "seed", int(self.seed))
        if self.hops is not None:
            if int(self.hops) < 0:
                raise ValueError(f"hops must be >= 0, got {self.hops}")
            object.__setattr__(self, "hops", int(self.hops))
        norm = []
        for pair in self.extras:
            key, value = pair
            if not isinstance(key, str) or not key:
                raise ValueError(f"extra keys must be non-empty strings: {pair!r}")
            if not isinstance(value, _SCALAR):
                raise ValueError(
                    f"extra {key!r} must be a JSON scalar, got {type(value)}"
                )
            norm.append((key, value))
        norm.sort()
        if len({k for k, _ in norm}) != len(norm):
            raise ValueError(f"duplicate extra keys in {self.extras!r}")
        object.__setattr__(self, "extras", tuple(norm))

    # -- convenience -------------------------------------------------------
    def extra(self, key: str, default: Any = None) -> Any:
        for k, v in self.extras:
            if k == key:
                return v
        return default

    def with_extras(self, **extras: Any) -> "ExperimentSpec":
        """A copy with ``extras`` merged in (sorted, duplicate-free)."""
        merged = {k: v for k, v in self.extras}
        merged.update(extras)
        return _dc_replace(self, extras=tuple(sorted(merged.items())))

    def replace(self, **changes: Any) -> "ExperimentSpec":
        return _dc_replace(self, **changes)

    @property
    def nodes(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    def label(self) -> str:
        """Short human identity: ``latency shape=2x2x2 hops=1``."""
        parts = [self.experiment, "shape=%dx%dx%d" % self.shape]
        if self.hops is not None:
            parts.append(f"hops={self.hops}")
        if self.payload:
            parts.append(f"payload={self.payload}")
        if self.rounds != 2:
            parts.append(f"rounds={self.rounds}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        parts.extend(f"{k}={v}" for k, v in self.extras)
        return " ".join(parts)

    # -- canonical identity ------------------------------------------------
    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "experiment": self.experiment,
            "shape": list(self.shape),
            "rounds": self.rounds,
            "payload": self.payload,
            "seed": self.seed,
        }
        if self.hops is not None:
            doc["hops"] = self.hops
        if self.extras:
            doc["extras"] = {k: v for k, v in self.extras}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict) or "experiment" not in doc:
            raise ValueError(f"spec document must name an experiment: {doc!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        extras = doc.get("extras", {})
        if not isinstance(extras, dict):
            raise ValueError(f"extras must be an object, got {extras!r}")
        return cls(
            experiment=doc["experiment"],
            shape=tuple(doc.get("shape", (4, 4, 4))),
            rounds=doc.get("rounds", 2),
            payload=doc.get("payload", 0),
            seed=doc.get("seed", 0),
            hops=doc.get("hops"),
            extras=tuple(sorted(extras.items())),
        )

    def canonical(self) -> str:
        """The canonical JSON identity (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())

    @property
    def spec_hash(self) -> str:
        """12-hex-digit digest of the canonical form."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    def derived_seed(self) -> int:
        """Deterministic per-run RNG seed: stable across processes,
        distinct for distinct specs, shifted by the ``seed`` field."""
        digest = hashlib.sha256(
            b"repro-run-seed\0" + self.canonical().encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def to_config(self) -> dict:
        """Benchmark-result config dict (``repro-bench/1`` ``config``)
        for sweep outputs: the spec minus the experiment name, which
        becomes the ``benchmark`` field."""
        doc = self.to_dict()
        doc.pop("experiment")
        return doc


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment: a runner plus dispatch metadata."""

    name: str
    func: Callable[[ExperimentSpec], Any]
    help: str = ""
    #: Eligible for ``python -m repro trace`` (flight recorder on).
    traceable: bool = True
    #: Eligible for ``python -m repro monitor`` / ``report``.
    monitorable: bool = True


_REGISTRY: dict[str, ExperimentDef] = {}
_BOOTSTRAPPED = False


def register_experiment(
    name: str,
    *,
    help: str = "",
    traceable: bool = True,
    monitorable: bool = True,
) -> Callable[[Callable], Callable]:
    """Publish a runner function ``(ExperimentSpec) -> Outcome`` as the
    implementation of ``name``.  Registration is import-time and
    idempotent per name: re-registering an existing name is an error
    (it would silently change what every entry point runs)."""

    def deco(func: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} is already registered")
        _REGISTRY[name] = ExperimentDef(
            name=name,
            func=func,
            help=help,
            traceable=traceable,
            monitorable=monitorable,
        )
        return func

    return deco


def ensure_registered() -> None:
    """Import the built-in experiment implementations exactly once."""
    global _BOOTSTRAPPED
    if not _BOOTSTRAPPED:
        _BOOTSTRAPPED = True
        import repro.runner.experiments  # noqa: F401  (registers on import)


def experiment_names(
    traceable: Optional[bool] = None,
    monitorable: Optional[bool] = None,
) -> tuple[str, ...]:
    """Registered names in registration order, optionally filtered."""
    ensure_registered()
    names = []
    for defn in _REGISTRY.values():
        if traceable is not None and defn.traceable != traceable:
            continue
        if monitorable is not None and defn.monitorable != monitorable:
            continue
        names.append(defn.name)
    return tuple(names)


def get_experiment(name: Union[str, ExperimentSpec]) -> ExperimentDef:
    """Resolve a name (or a spec's name) to its registered definition."""
    ensure_registered()
    if isinstance(name, ExperimentSpec):
        name = name.experiment
    defn = _REGISTRY.get(name)
    if defn is None:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {experiment_names()}"
        )
    return defn
