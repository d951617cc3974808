"""Flat key-value run configuration.

Format: UTF-8 text, one ``key = value`` per line, ``#`` comments.  Unknown
keys are rejected; missing keys fall back to defaults with a logged
notice.  Parsing then serializing then parsing yields the identical map.
"""

from __future__ import annotations

import logging
import re
from dataclasses import fields
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigError
from ..physics import BoundarySpec, GasModel, SpongeZone
from ..pipeline.solver import SolverOptions

logger = logging.getLogger(__name__)

# "gas.<field>" and "solver.<field>" for every GasModel and SolverOptions field
_SECTIONS = {"gas": GasModel, "solver": SolverOptions}

_EXACT_KEYS = {f"{section}.{f.name}" for section, cls in _SECTIONS.items()
               for f in fields(cls)} | {
    "prep.seed", "prep.routing",
    "init.case",
    "output.order", "output.format", "output.p0_ref", "output.patch",
}

_PATTERN_KEYS = [
    re.compile(r"^bc\.[A-Za-z0-9_]+\.(kind|p0|t0|direction|p_out|t_wall|"
               r"partner|translation|state)$"),
    re.compile(r"^sponge\.[A-Za-z0-9_]+\.(axis|lo|hi|width|strength|ref|side)$"),
    re.compile(r"^init\.[A-Za-z0-9_]+$"),
    re.compile(r"^case\.[A-Za-z0-9_]+$"),
]


def _known(key: str) -> bool:
    if key in _EXACT_KEYS:
        return True
    return any(p.match(key) for p in _PATTERN_KEYS)


class RunConfig:
    """Validated flat configuration with typed accessors."""

    def __init__(self, values: Optional[Dict[str, str]] = None):
        self.values: Dict[str, str] = {}
        for k, v in (values or {}).items():
            self._set(k, v)

    def _set(self, key: str, value: str):
        key = key.strip()
        if not _known(key):
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = str(value).strip()

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = body.split("=", 1)
            cfg._set(key, value)
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def serialize(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in sorted(self.values))

    # typed accessors ----------------------------------------------------

    def _get(self, key: str, default):
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        logger.info("config: %s defaulted to %r", key, default)
        return None

    def get_str(self, key: str, default=None) -> str:
        raw = self._get(key, default)
        return default if raw is None else raw

    def get_float(self, key: str, default=None) -> float:
        raw = self._get(key, default)
        return float(default) if raw is None else _parse(key, raw, float, "float")

    def get_int(self, key: str, default=None) -> int:
        raw = self._get(key, default)
        return int(default) if raw is None else _parse(key, raw, int, "integer")

    def get_bool(self, key: str, default=None) -> bool:
        raw = self._get(key, default)
        if raw is None:
            return bool(default)
        if raw.lower() in ("1", "true", "on", "yes"):
            return True
        if raw.lower() in ("0", "false", "off", "no"):
            return False
        raise ConfigError(f"{key}: cannot parse boolean from {raw!r}")

    def get_vec(self, key: str, default=None) -> np.ndarray:
        if key not in self.values and default is None:
            raise ConfigError(f"missing required config key {key!r}")
        raw = self._get(key, default)
        if raw is None:
            return np.asarray(default, dtype=float)
        return _parse(key, raw, _vector, "vector")

    def patches_with_bc(self) -> List[str]:
        out = set()
        for k in self.values:
            m = re.match(r"^bc\.([A-Za-z0-9_]+)\.", k)
            if m:
                out.add(m.group(1))
        return sorted(out)

    def sponge_names(self) -> List[str]:
        out = set()
        for k in self.values:
            m = re.match(r"^sponge\.([A-Za-z0-9_]+)\.", k)
            if m:
                out.add(m.group(1))
        return sorted(out)

    # object builders -----------------------------------------------------

    def _section(self, section: str):
        """``<section>.<field>`` for every field of the section's dataclass,
        defaulting to the field's default."""
        get = {bool: self.get_bool, int: self.get_int, float: self.get_float,
               str: self.get_str}
        cls = _SECTIONS[section]
        return cls(**{f.name: get[type(f.default)](f"{section}.{f.name}", f.default)
                      for f in fields(cls)})

    def gas_model(self) -> GasModel:
        return self._section("gas")

    def solver_options(self) -> SolverOptions:
        return self._section("solver")

    def boundary_specs(self) -> Dict[str, BoundarySpec]:
        out = {}
        for patch in self.patches_with_bc():
            kind = self.get_str(f"bc.{patch}.kind", _REQUIRED)
            kw = {}
            if kind == "riemann-inflow":
                kw["total_temperature"] = self.get_float(f"bc.{patch}.t0", _REQUIRED)
                kw["total_pressure"] = self.get_float(f"bc.{patch}.p0", _REQUIRED)
                kw["direction"] = self.get_vec(f"bc.{patch}.direction", _REQUIRED)
            elif kind == "outflow":
                kw["static_pressure"] = self.get_float(f"bc.{patch}.p_out", _REQUIRED)
            elif kind == "noslip-isothermal":
                kw["wall_temperature"] = self.get_float(f"bc.{patch}.t_wall", _REQUIRED)
            elif kind == "periodic":
                kw["partner"] = self.get_str(f"bc.{patch}.partner", _REQUIRED)
                kw["translation"] = self.get_vec(f"bc.{patch}.translation", _REQUIRED)
            elif kind == "sponge-ref":
                kw["reference_state"] = self.get_vec(f"bc.{patch}.state", _REQUIRED)
            out[patch] = BoundarySpec(patch=patch, kind=kind, **kw)
        return out

    def periodic_pairs(self):
        """(patch_a, patch_b, translation) from periodic bc declarations."""
        specs = self.boundary_specs()
        pairs = []
        seen = set()
        for name, spec in sorted(specs.items()):
            if spec.kind != "periodic" or name in seen:
                continue
            partner = spec.partner
            if partner not in specs or specs[partner].kind != "periodic":
                raise ConfigError(f"periodic patch {name} names non-periodic partner")
            seen.update((name, partner))
            # convention: the declared patch maps onto its partner by +translation
            pairs.append((partner, name, spec.translation))
        return pairs

    def sponge_zones(self) -> List[SpongeZone]:
        zones = []
        for name in self.sponge_names():
            zones.append(SpongeZone(
                axis=self.get_int(f"sponge.{name}.axis", _REQUIRED),
                lo=self.get_float(f"sponge.{name}.lo", _REQUIRED),
                hi=self.get_float(f"sponge.{name}.hi", _REQUIRED),
                ramp_width=self.get_float(f"sponge.{name}.width", _REQUIRED),
                strength=self.get_float(f"sponge.{name}.strength", _REQUIRED),
                reference_state=self.get_vec(f"sponge.{name}.ref", _REQUIRED),
                from_side=self.get_str(f"sponge.{name}.side", "lo"),
            ))
        return zones


def _vector(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.replace(",", " ").split()])


def _parse(key: str, raw: str, convert, what: str):
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {what} from {raw!r}") from None


class _Required:
    pass


_REQUIRED = _Required()
