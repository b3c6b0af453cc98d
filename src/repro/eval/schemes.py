"""Scheme registry: named factories for every localization scheme.

The paper's evaluation grid pairs each *scheme* (Flock, its ablation
arms, Sherlock, NetBouncer, 007) with a telemetry input spec ("Flock
(A1+A2+P)", "NetBouncer (INT)", ...).  This module is the single place
where schemes are constructed: every experiment spec, benchmark, and
CLI invocation resolves a scheme by registry name instead of importing
its class (the ``flock_fast`` vector engines used to be lazily imported
at four separate call sites for exactly this job).

A :class:`SchemeDef` couples a registry name with a keyword-argument
factory, the factory's calibrated defaults, and the scheme's default
telemetry spec.  :func:`build_localizer` constructs the bare localizer;
:func:`make_setup` wraps it into the harness's
:class:`~repro.eval.harness.SchemeSetup` with its telemetry config.

Registered names (see :func:`scheme_names`):

``flock``
    Greedy + JLE maximum-likelihood inference (the paper's scheme).
``flock-greedy``
    Greedy search without JLE - the "greedy only" ablation arm of
    Fig. 4c, priced on the shared vector substrate.
``sherlock``
    Plain Ferret: exhaustively price every <=K-failure hypothesis.
``sherlock-jle``
    Ferret accelerated by the JLE Δ-array (Algorithm 3) - the
    "JLE only" ablation arm of Fig. 4c.
``netbouncer``
    NetBouncer's regularized least-squares link estimator.
``007``
    007's path-voting heuristic.

``flock``, ``flock-greedy``, ``sherlock`` and ``sherlock-jle`` all
price on the one per-flow layout of :mod:`repro.core.flock_fast`; none
takes an engine, layout or backend argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..baselines.b007 import Vote007
from ..baselines.netbouncer import NetBouncer
from ..baselines.sherlock import SherlockFerret
from ..core.flock import FlockInference
from ..core.flock_fast import VectorGreedyWithoutJle
from ..core.params import DEFAULT_PER_PACKET, FlockParams
from ..errors import ExperimentError, InferenceError
from ..telemetry.inputs import TelemetryConfig
from .harness import SchemeSetup

#: Default calibrated baseline settings (chosen by the section 5.2 rule on
#: this repo's standard training environment; see bench_table1_robustness).
DEFAULT_NETBOUNCER = dict(regularization=0.005, drop_threshold=3e-3, device_frac=0.5)
DEFAULT_007 = dict(threshold=0.6)


@dataclass(frozen=True)
class SchemeDef:
    """One registered scheme: a named factory plus its defaults.

    ``factory(**params)`` must return a localizer (an object with a
    ``localize(problem) -> Prediction`` method).  ``defaults`` are the
    calibrated settings merged *under* caller overrides; ``default_spec``
    is the telemetry the scheme consumes when none is given (the input
    the paper pairs it with by default).
    """

    name: str
    display: str
    factory: Callable[..., object]
    default_spec: str
    description: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)


_REGISTRY: Dict[str, SchemeDef] = {}


def register_scheme(
    name: str,
    display: str,
    factory: Callable[..., object],
    default_spec: str,
    description: str = "",
    defaults: Optional[Mapping[str, object]] = None,
) -> SchemeDef:
    """Register a scheme under ``name``; replaces any existing entry."""
    entry = SchemeDef(
        name=name,
        display=display,
        factory=factory,
        default_spec=default_spec,
        description=description,
        defaults=dict(defaults or {}),
    )
    _REGISTRY[name] = entry
    return entry


def get_scheme(name: str) -> SchemeDef:
    """Look up a registered scheme or fail with the available names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(scheme_names())}"
        ) from None


def scheme_names() -> List[str]:
    return sorted(_REGISTRY)


def build_localizer(name: str, **overrides) -> object:
    """Construct a registered scheme's localizer from its factory.

    ``overrides`` update the scheme's calibrated defaults; unknown
    keyword names surface as :class:`ExperimentError` so a CLI typo in
    ``--set`` fails loudly instead of being swallowed.
    """
    entry = get_scheme(name)
    args = dict(entry.defaults)
    args.update(overrides)
    try:
        return entry.factory(**args)
    except TypeError as exc:
        raise ExperimentError(
            f"cannot construct scheme {name!r} with parameters {args}: {exc}"
        ) from None


def make_setup(
    name: str,
    spec: Optional[str] = None,
    overrides: Optional[Mapping[str, object]] = None,
    telemetry: Optional[Mapping[str, object]] = None,
    label: Optional[str] = None,
) -> SchemeSetup:
    """Build a harness :class:`SchemeSetup` for a registered scheme.

    ``spec`` overrides the scheme's default telemetry spec;
    ``telemetry`` passes extra :class:`TelemetryConfig` kwargs (e.g.
    ``passive_sampling``); ``label`` overrides the setup's display name
    (the harness labels it ``"{label} ({spec})"``).
    """
    entry = get_scheme(name)
    return SchemeSetup(
        name=label if label is not None else entry.display,
        localizer=build_localizer(name, **(overrides or {})),
        telemetry=TelemetryConfig.from_spec(
            spec if spec is not None else entry.default_spec,
            **(telemetry or {}),
        ),
    )


# ----------------------------------------------------------------------
# Built-in schemes
# ----------------------------------------------------------------------


class GreedyOnlyLocalizer:
    """Flock's greedy search without JLE (the Fig. 4c ablation arm): a
    localizer adapter over
    :class:`~repro.core.flock_fast.VectorGreedyWithoutJle`."""

    name = "flock-greedy-only"

    def __init__(
        self,
        params: FlockParams = DEFAULT_PER_PACKET,
        max_failures: Optional[int] = None,
    ) -> None:
        if max_failures is not None and max_failures < 0:
            raise InferenceError("max_failures must be non-negative")
        self._params = params
        self._max_failures = max_failures

    def localize(self, problem):
        return VectorGreedyWithoutJle(
            problem, self._params, self._max_failures
        ).run()


def _flock_params(pg: float, pb: float, rho: float) -> FlockParams:
    return FlockParams(pg=pg, pb=pb, rho=rho)


def _flock(pg, pb, rho, max_failures=None):
    return FlockInference(
        _flock_params(pg, pb, rho), max_failures=max_failures
    )


def _flock_greedy(pg, pb, rho, max_failures=None):
    return GreedyOnlyLocalizer(
        _flock_params(pg, pb, rho), max_failures=max_failures
    )


def _sherlock(pg, pb, rho, max_failures=2, use_jle=False):
    return SherlockFerret(
        _flock_params(pg, pb, rho),
        max_failures=max_failures,
        use_jle=use_jle,
    )


_FLOCK_DEFAULTS = dict(
    pg=DEFAULT_PER_PACKET.pg, pb=DEFAULT_PER_PACKET.pb, rho=DEFAULT_PER_PACKET.rho
)

register_scheme(
    "flock", "Flock", _flock, "A1+A2+P",
    description="greedy + JLE maximum-likelihood inference (the paper's scheme)",
    defaults=_FLOCK_DEFAULTS,
)
register_scheme(
    "flock-greedy", "Flock greedy-only", _flock_greedy, "A1+A2+P",
    description="greedy search without JLE (Fig. 4c ablation arm)",
    defaults=_FLOCK_DEFAULTS,
)
register_scheme(
    "sherlock", "Sherlock", _sherlock, "A1+A2+P",
    description="plain Ferret: exhaustively price every <=K-failure hypothesis",
    defaults=dict(_FLOCK_DEFAULTS, max_failures=2, use_jle=False),
)
register_scheme(
    "sherlock-jle", "Sherlock+JLE", _sherlock, "A1+A2+P",
    description="Ferret with the JLE delta-array recursion (Algorithm 3)",
    defaults=dict(_FLOCK_DEFAULTS, max_failures=2, use_jle=True),
)
register_scheme(
    "netbouncer", "NetBouncer", NetBouncer, "INT",
    description="regularized least-squares link estimator",
    defaults=DEFAULT_NETBOUNCER,
)
register_scheme(
    "007", "007", Vote007, "A2",
    description="path-voting heuristic over flagged flows",
    defaults=DEFAULT_007,
)
