"""Unified engine options for the :func:`repro.run` facade.

The four engines historically diverged in constructor signatures
(``MultiLogVC(..., mode=, enable_edgelog=, enable_fusing=,
min_intervals=, intervals=)`` vs ``GraFBoost(..., adapted=,
merge_fanout=)`` vs bare ``GraphChi`` vs ``GridGraph(...,
intervals=)``).  :class:`EngineOptions` consolidates every knob into one
frozen dataclass so any workload runs on any engine through the same
call::

    repro.run(graph, program, engine="grafboost",
              options=EngineOptions(adapted=True))

Each engine validates that the non-default options it received actually
apply to it (asking GraphChi for ``adapted=True`` is an error, not a
silent no-op) and folds the config-level knobs into its
:class:`~repro.config.SimConfig` with one :func:`resolve_options` call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from .config import SimConfig
from .errors import EngineError

if TYPE_CHECKING:  # circular-import guard; only for annotations
    from .graph.partition import VertexIntervals
    from .ssd.filesystem import SimFS


@dataclass(frozen=True)
class EngineOptions:
    """Every engine-tuning knob, consolidated.

    Only the subset relevant to the chosen engine may differ from the
    defaults; see :data:`RELEVANT_OPTIONS`.

    mode:
        ``"sync"`` (default) or ``"async"`` computation model
        (MultiLogVC §V-F).
    enable_edgelog:
        Toggle for the §V-C edge-log optimizer (MultiLogVC ablations).
    enable_fusing:
        Toggle for §V-A2 interval fusing (MultiLogVC ablations).
    min_intervals:
        Force at least this many vertex intervals (MultiLogVC
        testing/ablation).
    intervals:
        Explicit vertex-interval partition overriding the automatic
        sizing rule (MultiLogVC and GridGraph).
    adapted:
        GraFBoost §VIII adaptation: keep all updates, no combine.
    merge_fanout:
        Width of GraFBoost's external merge (16-way in ISCA'18).
    grid_p:
        GridGraph grid dimension: partition vertices into ``p`` uniform
        intervals (``p x p`` edge blocks) instead of the edge-volume
        sizing rule.
    checkpoint_every:
        Write a crash-consistent checkpoint every N supersteps
        (MultiLogVC only; 0 disables checkpointing).  See
        :mod:`repro.recovery` and DESIGN.md §8.
    checkpoint_mode:
        ``"full"`` (default) snapshots the whole value vector each
        time; ``"incremental"`` stores value deltas against the
        previous checkpoint (resolved back to a full baseline at load).
    cache_policy, cache_bytes, num_workers, io_plan, readahead_pages, num_devices, placement:
        Config-level knobs (:data:`CONFIG_OPTIONS`): each overrides the
        :class:`~repro.config.SimConfig` field of the same name, which
        documents and checks its domain; ``None`` (default) keeps the
        config's value.  A bare ``cache_bytes`` implies
        ``cache_policy="clock"``.
    recompute:
        Streaming-update recompute policy (DESIGN.md §12), consumed by
        :class:`~repro.stream.StreamSession` -- not by the engines
        themselves, so the session strips it back to the default before
        constructing an engine.  ``"auto"`` (default) warm-starts when
        the program supports it and the delta fraction is under
        ``SimConfig.stream_max_delta_fraction``; ``"incremental"``
        warm-starts whenever the program supports it; ``"full"`` always
        recomputes from scratch.
    """

    mode: str = "sync"
    enable_edgelog: bool = True
    enable_fusing: bool = True
    min_intervals: int = 1
    intervals: Optional["VertexIntervals"] = None
    adapted: bool = False
    merge_fanout: int = 16
    grid_p: Optional[int] = None
    checkpoint_every: int = 0
    checkpoint_mode: str = "full"
    cache_policy: Optional[str] = None
    cache_bytes: Optional[int] = None
    num_workers: Optional[int] = None
    io_plan: Optional[str] = None
    readahead_pages: Optional[int] = None
    num_devices: Optional[int] = None
    placement: Optional[str] = None
    recompute: str = "auto"

    def replace(self, **changes) -> "EngineOptions":
        """Return a copy with the given fields replaced.

        Sugar over :func:`dataclasses.replace` so callers tweaking a
        shared base options object do not need the dataclasses import::

            base = EngineOptions(checkpoint_every=4)
            fast = base.replace(num_workers=8)
        """
        return dataclasses.replace(self, **changes)

    def validate_for(self, engine: str, fs: Optional["SimFS"] = None) -> None:
        """Reject non-default options the named engine does not consume.

        ``fs`` is the explicit file system handed to the engine, if any:
        :class:`~repro.ssd.SimFS` builds the page cache and the device
        array from its config, so file-layer knobs combined with an
        explicit ``fs`` would be silently ignored -- that combination is
        an error here.  Config-level values are checked where they are
        folded (:func:`apply_config_options`), by ``SimConfig.validate``.
        """
        relevant = RELEVANT_OPTIONS.get(engine)
        if relevant is None:
            raise EngineError(
                f"unknown engine {engine!r}; choose from {sorted(RELEVANT_OPTIONS)}"
            )
        defaults = EngineOptions()
        stray = [
            f.name
            for f in dataclasses.fields(self)
            if f.name not in relevant
            and getattr(self, f.name) != getattr(defaults, f.name)
        ]
        if stray:
            raise EngineError(
                f"option(s) {', '.join(stray)} do not apply to engine {engine!r} "
                f"(it honours: {', '.join(sorted(relevant)) or 'none'})"
            )
        pinned = sorted(n for n in _FILE_LAYER_OPTIONS if getattr(self, n) is not None)
        if fs is not None and pinned:
            raise EngineError(
                f"option(s) {', '.join(pinned)} cannot be combined with an explicit fs; "
                "SimFS builds the page cache and device array from its config -- set "
                "them on the SimConfig the fs was built from instead"
            )
        if self.mode not in ("sync", "async"):
            raise EngineError(f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.merge_fanout < 2:
            raise EngineError("merge_fanout must be >= 2")
        if self.min_intervals < 1:
            raise EngineError("min_intervals must be >= 1")
        if self.grid_p is not None and self.grid_p < 1:
            raise EngineError("grid_p must be >= 1")
        if self.checkpoint_every < 0:
            raise EngineError("checkpoint_every must be >= 0")
        if self.checkpoint_mode not in ("full", "incremental"):
            raise EngineError(
                f"checkpoint_mode must be 'full' or 'incremental', got {self.checkpoint_mode!r}"
            )
        if self.recompute not in ("auto", "incremental", "full"):
            raise EngineError(
                f"recompute must be 'auto', 'incremental' or 'full', got {self.recompute!r}"
            )


#: Config-level knobs: the :class:`EngineOptions` fields that override
#: the :class:`~repro.config.SimConfig` field of the same name.  Found by
#: name, so each knob is declared (and checked) once, on ``SimConfig``.
CONFIG_OPTIONS: FrozenSet[str] = frozenset(
    f.name for f in dataclasses.fields(EngineOptions)
) & frozenset(f.name for f in dataclasses.fields(SimConfig))

#: The page cache and the device array live in the shared SSD file
#: layer, so every out-of-core engine honours their knobs; the in-memory
#: oracle performs no simulated I/O and honours none.  The planner and
#: worker knobs are wired through MultiLogVC only.
_FILE_LAYER_OPTIONS = frozenset({"cache_policy", "cache_bytes", "num_devices", "placement"})

#: Which :class:`EngineOptions` fields each engine consumes.
RELEVANT_OPTIONS: Dict[str, FrozenSet[str]] = {
    "multilogvc": frozenset(
        {
            "mode",
            "enable_edgelog",
            "enable_fusing",
            "min_intervals",
            "intervals",
            "checkpoint_every",
            "checkpoint_mode",
        }
    )
    | CONFIG_OPTIONS,
    "graphchi": _FILE_LAYER_OPTIONS,
    # The in-memory golden oracle (repro.verify) has no tuning knobs.
    "oracle": frozenset(),
    "grafboost": frozenset({"adapted", "merge_fanout"}) | _FILE_LAYER_OPTIONS,
    "gridgraph": frozenset({"intervals", "grid_p"}) | _FILE_LAYER_OPTIONS,
    "xstream": frozenset({"intervals", "grid_p"}) | _FILE_LAYER_OPTIONS,
}


def apply_config_options(config: SimConfig, options: EngineOptions) -> SimConfig:
    """Fold the options' config-level knobs into ``config``.

    Each non-``None`` :data:`CONFIG_OPTIONS` field replaces the config
    field of the same name and nothing else; a bare ``cache_bytes``
    implies ``cache_policy="clock"``, the only real policy.  The result
    is checked by ``SimConfig.validate``, so a bad value raises
    :class:`~repro.errors.ConfigError` here.
    """
    overrides = {n: getattr(options, n) for n in CONFIG_OPTIONS if getattr(options, n) is not None}
    if "cache_bytes" in overrides:
        overrides.setdefault("cache_policy", "clock")
    return dataclasses.replace(config, **overrides) if overrides else config


def resolve_options(
    engine: str,
    options: Optional[EngineOptions],
    config: SimConfig,
    fs: Optional["SimFS"] = None,
) -> Tuple[EngineOptions, SimConfig]:
    """Validate (and default) ``options`` for ``engine`` and fold them into ``config``.

    The one call every engine constructor makes; returns the options and
    the config the engine runs with.
    """
    if options is None:
        options = EngineOptions()
    options.validate_for(engine, fs=fs)
    return options, apply_config_options(config, options)
