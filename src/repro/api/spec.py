"""SystemSpec: declarative, validated derivation of system configurations.

A :class:`SystemSpec` names a preset to start from plus the overrides
that turn it into the hardware point you actually want to evaluate --
core model and count, SIMD width, partition scheme, probe algorithm,
inter-stack topology, HMC geometry, DRAM timing, and the shuffle
network's interleave model.  ``to_config()`` materializes a fully
validated :class:`~repro.config.system.SystemConfig`; every override is
checked either here (unknown core models, unknown geometry/timing
fields) or by the config dataclasses' own ``__post_init__`` validation
(vocabulary, positivity, cross-field rules such as "permutable
partitioning needs near-memory compute").

Specs are frozen and hashable, so they serve directly as content-cache
keys (``repro.experiments.common`` memoizes results per spec the same
way it memoizes per preset name) and pickle cleanly across the sweep
process pool.  A bare preset name is a valid spec everywhere the API
accepts one (:func:`as_spec`).

>>> from repro.api.spec import SystemSpec
>>> spec = SystemSpec("mondrian").with_cores(32).with_topology("star")
>>> cfg = spec.to_config()
>>> cfg.num_cores, cfg.topology
(32, 'star')
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.config.cores import (
    CoreConfig,
    cortex_a35_mondrian,
    cortex_a57_cpu,
    krait400_nmp,
)
from repro.config.system import SystemConfig, get_preset

#: Named core models an override may select (Table 3's compute units).
CORE_MODELS = {
    "cortex-a57": cortex_a57_cpu,
    "krait400": krait400_nmp,
    "cortex-a35": cortex_a35_mondrian,
}

#: Scalar SystemConfig fields a spec may override one-for-one.
_SCALAR_OVERRIDES = (
    "kind",
    "num_cores",
    "partition_scheme",
    "probe_algorithm",
    "topology",
    "interleave_model",
    "has_cache_hierarchy",
    "llc_b",
)

#: Nested config dataclasses overridable field-by-field.
_NESTED_OVERRIDES = ("geometry", "timing", "interconnect", "faults")

_Items = Tuple[Tuple[str, Any], ...]


def _as_items(value: Union[Mapping[str, Any], _Items]) -> _Items:
    """Normalize a mapping (or items tuple) to sorted, hashable items."""
    pairs = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted((str(k), v) for k, v in pairs))


@dataclass(frozen=True)
class SystemSpec:
    """A system preset plus validated overrides.

    Unset fields (``None`` / empty) inherit from the base preset; the
    fluent ``with_*`` helpers return new specs, so partial specs compose:

    >>> base = SystemSpec("nmp-perm")
    >>> wide = base.with_core_model("cortex-a35", simd_width_bits=512)
    >>> base.to_config().core.name          # the original is untouched
    'krait400'
    >>> wide.to_config().core.simd_width_bits
    512
    """

    base: str = "mondrian"
    name: Optional[str] = None
    kind: Optional[str] = None
    core_model: Optional[str] = None
    num_cores: Optional[int] = None
    simd_width_bits: Optional[int] = None
    partition_scheme: Optional[str] = None
    probe_algorithm: Optional[str] = None
    topology: Optional[str] = None
    interleave_model: Optional[str] = None
    has_cache_hierarchy: Optional[bool] = None
    llc_b: Optional[int] = None
    geometry: _Items = field(default=())
    timing: _Items = field(default=())
    interconnect: _Items = field(default=())
    faults: _Items = field(default=())

    def __post_init__(self) -> None:
        get_preset(self.base)  # KeyError with the valid names on a miss
        if self.core_model is not None and self.core_model not in CORE_MODELS:
            raise ValueError(
                f"unknown core model {self.core_model!r}; "
                f"choose from {sorted(CORE_MODELS)}"
            )
        for nested in _NESTED_OVERRIDES:
            object.__setattr__(self, nested, _as_items(getattr(self, nested)))

    # -- fluent builders ----------------------------------------------------

    @classmethod
    def from_preset(cls, name: str) -> "SystemSpec":
        """The spec equivalent of ``get_preset(name)`` -- no overrides."""
        return cls(base=name)

    def named(self, name: str) -> "SystemSpec":
        """Set the derived configuration's display name."""
        return replace(self, name=name)

    def with_cores(self, num_cores: int) -> "SystemSpec":
        return replace(self, num_cores=num_cores)

    def with_core_model(
        self, model: str, simd_width_bits: Optional[int] = None
    ) -> "SystemSpec":
        """Select a named core model, optionally resized.

        An omitted ``simd_width_bits`` keeps any width already set on
        this spec (it does not reset it to the model's default).
        """
        if simd_width_bits is None:
            return replace(self, core_model=model)
        return replace(self, core_model=model, simd_width_bits=simd_width_bits)

    def with_simd(self, simd_width_bits: int) -> "SystemSpec":
        return replace(self, simd_width_bits=simd_width_bits)

    def with_partitioning(self, scheme: str) -> "SystemSpec":
        return replace(self, partition_scheme=scheme)

    def with_probe(self, algorithm: str) -> "SystemSpec":
        return replace(self, probe_algorithm=algorithm)

    def with_topology(self, topology: str) -> "SystemSpec":
        return replace(self, topology=topology)

    def with_interleave(self, model: str) -> "SystemSpec":
        return replace(self, interleave_model=model)

    def with_geometry(self, **overrides) -> "SystemSpec":
        return replace(self, geometry=dict(self.geometry, **overrides))

    def with_timing(self, **overrides) -> "SystemSpec":
        return replace(self, timing=dict(self.timing, **overrides))

    def with_faults(self, **overrides) -> "SystemSpec":
        """Override the deterministic shuffle fault schedule
        (:class:`~repro.faults.plan.FaultSpec` fields, e.g.
        ``drop_prob=0.2, seed=7``)."""
        return replace(self, faults=dict(self.faults, **overrides))

    # -- derivation ---------------------------------------------------------

    @property
    def is_preset(self) -> bool:
        """True when the spec adds nothing to its base preset."""
        return self == SystemSpec(base=self.base)

    def overrides(self) -> Dict[str, Any]:
        """The non-inherited fields, for labels and serialization."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            if f.name == "base":
                continue
            value = getattr(self, f.name)
            if value is None or value == ():
                continue
            out[f.name] = dict(value) if f.name in _NESTED_OVERRIDES else value
        return out

    @property
    def label(self) -> str:
        """Display name: explicit ``name`` or a deterministic derivation."""
        if self.name:
            return self.name
        overrides = self.overrides()
        if not overrides:
            return self.base
        parts = []
        for key, value in overrides.items():
            if key in _NESTED_OVERRIDES:
                inner = ",".join(f"{k}={v}" for k, v in sorted(value.items()))
                parts.append(f"{key}({inner})")
            else:
                parts.append(f"{key}={value}")
        return f"{self.base}[{';'.join(parts)}]"

    @property
    def cache_key(self) -> tuple:
        """Hashable content key: everything the derived config depends on."""
        return (
            "spec",
            self.base,
            self.name,
            self.kind,
            self.core_model,
            self.num_cores,
            self.simd_width_bits,
            self.partition_scheme,
            self.probe_algorithm,
            self.topology,
            self.interleave_model,
            self.has_cache_hierarchy,
            self.llc_b,
            self.geometry,
            self.timing,
            self.interconnect,
            self.faults,
        )

    def _derive_core(self, preset_core: CoreConfig) -> CoreConfig:
        if self.core_model is not None:
            if self.core_model == "cortex-a35":
                if self.simd_width_bits is None:
                    return cortex_a35_mondrian()
                return cortex_a35_mondrian(simd_width_bits=self.simd_width_bits)
            core = CORE_MODELS[self.core_model]()
            if self.simd_width_bits is not None:
                core = replace(core, simd_width_bits=self.simd_width_bits)
            return core
        if self.simd_width_bits is not None:
            if preset_core.name.startswith("cortex-a35"):
                # Re-derive through the factory so the name and power
                # stay consistent with the ablation convention.
                return cortex_a35_mondrian(simd_width_bits=self.simd_width_bits)
            return replace(preset_core, simd_width_bits=self.simd_width_bits)
        return preset_core

    def _derive_nested(self, preset_value, overrides: _Items, what: str):
        if not overrides:
            return preset_value
        try:
            return replace(preset_value, **dict(overrides))
        except TypeError:
            valid = sorted(f.name for f in fields(preset_value))
            unknown = sorted(set(dict(overrides)) - set(valid))
            raise ValueError(
                f"unknown {what} field(s) {unknown}; valid fields: {valid}"
            ) from None

    def to_config(self) -> SystemConfig:
        """Materialize the spec into a validated :class:`SystemConfig`.

        Round-trip property: ``SystemSpec(p).to_config()`` equals
        ``get_preset(p)`` for every preset ``p`` (pinned by tests).
        """
        preset = get_preset(self.base)
        updates: Dict[str, Any] = {}
        for name in _SCALAR_OVERRIDES:
            value = getattr(self, name)
            if value is not None:
                updates[name] = value
        core = self._derive_core(preset.core)
        if core is not preset.core:
            updates["core"] = core
        updates["geometry"] = self._derive_nested(
            preset.geometry, self.geometry, "geometry"
        )
        updates["timing"] = self._derive_nested(preset.timing, self.timing, "timing")
        updates["interconnect"] = self._derive_nested(
            preset.interconnect, self.interconnect, "interconnect"
        )
        updates["faults"] = self._derive_nested(preset.faults, self.faults, "faults")
        updates["name"] = self.label
        return preset.with_overrides(**updates)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: base plus the non-inherited overrides."""
        return {"base": self.base, **self.overrides()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        """Inverse of :meth:`to_dict` (round-trip pinned by tests)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown SystemSpec field(s) {unknown}; valid: {sorted(known)}"
            )
        return cls(**dict(data))


def as_spec(system: Union[str, SystemSpec]) -> SystemSpec:
    """Coerce a preset name or spec to a :class:`SystemSpec`."""
    if isinstance(system, SystemSpec):
        return system
    if isinstance(system, str):
        return SystemSpec(base=system)
    raise TypeError(
        f"expected a preset name or SystemSpec, got {type(system).__name__}"
    )
