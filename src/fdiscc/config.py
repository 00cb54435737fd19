"""Scenario configuration: system constants, geometry, fading and cache parameters.

All values are stored in linear units (watts, Hz, joules, meters) except the
fields whose names end in ``_db``.  Config files are JSON with keys exactly
matching the dataclass field names below and values of their annotated kinds;
omitted keys take the defaults.

Every record checks its own fields when it is built, in ``__post_init__``,
which ``dataclasses.replace`` runs too: kinds first, then ranges, then the
rules that tie fields together. It raises ConfigError, so no invalid record
exists and no caller checks one again. Values derived from fields are
computed on read, so a ``replace`` cannot leave one stale; the per-user
arrays of a ``SystemConfig`` are computed on the first read and kept in that
record alone.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path

import numpy as np


def db2lin(x_db: float) -> float:
    """Convert dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


def is_number(value) -> bool:
    """A real that is finite as a float: NaN and Infinity, which JSON files may
    hold, slip past range checks, and so do integers beyond the float range."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _finite_numbers(value) -> bool:
    return isinstance(value, tuple) and all(map(is_number, value))


# what a field of each annotation accepts; nested records check their own fields
_FIELD_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool)),
    "float": ("a finite number", is_number),
    "float | None": ("a finite number", lambda v: v is None or is_number(v)),
    "float | tuple[float, ...]": ("a finite number or a list of them",
                                  lambda v: is_number(v) or _finite_numbers(v)),
    "tuple[float, ...]": ("a list of finite numbers", _finite_numbers),
    "tuple[float, float]": ("a pair of finite numbers", lambda v: isinstance(v, tuple)
                            and len(v) == 2 and all(map(is_number, v))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list", lambda v: isinstance(v, tuple)),
    "dict | None": ("an object", lambda v: v is None or isinstance(v, dict)),
}


def check_field_kinds(record) -> None:
    """Raise ConfigError naming the first field of a dataclass record whose
    value is not of its annotated kind."""
    for f in fields(record):
        kind = _FIELD_KINDS.get(f.type)
        value = getattr(record, f.name)
        if kind is not None and not kind[1](value):
            raise ConfigError(f"{f.name} must be {kind[0]}, got {value!r}")


@dataclass(frozen=True)
class PathLossConfig:
    """Distance-dependent path loss PL(d) = lambda_linear * (d/d0_m)^-eta."""

    lambda_linear: float = 1e-3  # gain at the reference distance (-30 dB)
    d0_m: float = 1.0
    eta_br: float = 2.2   # BS <-> IRS
    eta_ru: float = 2.5   # IRS <-> UE
    eta_rt: float = 2.2   # IRS <-> target
    eta_mp: float = 3.9   # CP-UE <-> CM-UE direct

    def __post_init__(self):
        check_field_kinds(self)
        _require_positive(self, ("lambda_linear", "d0_m"))


@dataclass(frozen=True)
class GeometryConfig:
    """2-D deployment: BS, IRS, a user box and the sensing target."""

    bs_pos: tuple[float, float] = (-50.0, 0.0)
    irs_pos: tuple[float, float] = (0.0, 6.0)
    target_distance_m: float = 3.0
    target_angle_rad: float = math.radians(40.0)
    user_x_range: tuple[float, float] = (10.0, 40.0)
    user_y_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        check_field_kinds(self)
        _require_positive(self, ("target_distance_m",))
        if not (0.0 <= self.target_angle_rad < math.pi):
            raise ConfigError("target_angle_rad must lie in [0, pi)")
        for name in ("user_x_range", "user_y_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ConfigError(f"{name} must be ordered low <= high, got [{low}, {high}]")


@dataclass(frozen=True)
class CacheConfig:
    """Content-popularity and backhaul parameters.

    ``lengths``, ``backhaul_price`` and ``backhaul_rate`` may be scalars
    (shared by every file / CP-UE) or per-index tuples. The number of CP-UEs,
    and so of backhaul rates, is checked by the ``SystemConfig`` that holds
    this record.
    """

    n_files: int = 1000
    capacity: float = 1e6
    lengths: float | tuple[float, ...] = 1e5
    backhaul_price: float | tuple[float, ...] = 1.0
    skew: float = 1.4
    backhaul_rate: float | tuple[float, ...] = 1e8  # bit/s per CP-UE

    def __hash__(self) -> int:
        # the placement memos of ``cacheopt`` hash this record on every lookup,
        # and the hash of a per-file tuple walks every file: hashed once
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash",
                               hash(tuple(getattr(self, f.name) for f in fields(self))))
        return self.__dict__["_hash"]

    def lengths_array(self) -> np.ndarray:
        return _broadcast(self.lengths, self.n_files)

    def rate_array(self, n_cp: int) -> np.ndarray:
        return _broadcast(self.backhaul_rate, n_cp)

    def __post_init__(self):
        check_field_kinds(self)
        if self.n_files < 1:
            raise ConfigError("n_files must be >= 1")
        if self.capacity < 0:
            raise ConfigError("capacity must be >= 0")
        if min(_per_index(self, "lengths", self.n_files)) <= 0:
            raise ConfigError("lengths must be > 0")
        if self.skew < 0:
            raise ConfigError("skew must be >= 0")
        if min(_per_index(self, "backhaul_price", self.n_files)) < 0:
            raise ConfigError("backhaul_price must be >= 0")
        if min(_entries(self.backhaul_rate), default=0.0) < 0:
            raise ConfigError("backhaul_rate must be >= 0")


def _require_positive(record, names: tuple[str, ...]) -> None:
    for name in names:
        if getattr(record, name) <= 0:
            raise ConfigError(f"{name} must be > 0")


def _entries(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _per_index(record, name: str, n: int) -> tuple:
    """The entries of the per-index field ``name``: one, shared by all n
    indices, or n of them. No other count is accepted, none included."""
    values = _entries(getattr(record, name))
    if len(values) not in (1, max(n, 1)):
        raise ConfigError(f"{name} must be a scalar or have length {max(n, 1)}, "
                          f"got {len(values)}")
    return values


def _broadcast(value, n: int) -> np.ndarray:
    """A per-index field, whose entry count its record has checked, as n floats."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return np.full(n, float(arr[0])) if arr.size == 1 else arr.copy()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemConfig:
    """All scenario constants.  Defaults reproduce the reference parameter table
    (4x4 BS arrays, 50-element IRS, 2+2 users, 1 MHz band, 30 dBm budget).

    ``e_max_array`` and ``eps_array`` are built once per record, on first
    read, and are read-only: the blocks read them on every call.  A
    ``dataclasses.replace`` builds a new record, which builds its own."""

    n_tx: int = 4
    n_rx: int = 4
    m_passive: int = 50
    m_active: int = 10
    n_cm: int = 2
    n_cp: int = 2
    bandwidth_hz: float = 1e6
    coherence_time_s: float = 1.0
    p_bs_watt: float = 1.0                    # 30 dBm
    gamma_tar_linear: float = db2lin(7.0)     # radar SINR threshold
    e_max_joule: float | tuple[float, ...] = 0.01
    zeta: float = 1e-26
    eps_cycles_per_bit: float | tuple[float, ...] = 1000.0
    noise_bs_watt: float = 1e-12              # -90 dBm
    noise_ue_watt: float = 1e-12
    noise_irs_watt: float = 1e-12
    cache: CacheConfig = field(default_factory=CacheConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    pathloss: PathLossConfig = field(default_factory=PathLossConfig)
    rician_k_db: float = 3.0
    si_power_db: float = -110.0
    eta_rt: float | None = None               # see ``target_reflection``
    seed: int = 0

    def __post_init__(self):
        check_field_kinds(self)
        for name in ("n_tx", "n_rx", "m_passive", "m_active"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("n_cm", "n_cp"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        _require_positive(self, ("bandwidth_hz", "coherence_time_s", "p_bs_watt",
                                 "gamma_tar_linear", "zeta", "noise_bs_watt",
                                 "noise_ue_watt", "noise_irs_watt"))
        if min(_per_index(self, "e_max_joule", self.n_cp)) <= 0:
            raise ConfigError("e_max_joule must be > 0")
        if min(_per_index(self, "eps_cycles_per_bit", self.n_cp)) <= 0:
            raise ConfigError("eps_cycles_per_bit must be > 0")
        if self.eta_rt is not None and self.eta_rt <= 0:
            raise ConfigError("eta_rt must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # one backhaul rate per CP-UE, which only this record knows the number of
        _per_index(self.cache, "backhaul_rate", self.n_cp)

    def target_reflection(self) -> float:
        """``eta_rt`` if given, else the two-way reflected-path loss at the
        target distance times an effective RCS gain (~13.5 dB), which keeps the
        sensing threshold attainable yet active at the reference scale."""
        if self.eta_rt is not None:
            return self.eta_rt
        plc = self.pathloss
        return 4.75 * (plc.lambda_linear * (
            self.geometry.target_distance_m / plc.d0_m) ** (-plc.eta_rt))

    def e_max_array(self) -> np.ndarray:
        return self._e_max

    def eps_array(self) -> np.ndarray:
        return self._eps

    @cached_property
    def _e_max(self) -> np.ndarray:
        return _read_only(_broadcast(self.e_max_joule, self.n_cp))

    @cached_property
    def _eps(self) -> np.ndarray:
        return _read_only(_broadcast(self.eps_cycles_per_bit, self.n_cp))


def paper_config(**overrides) -> SystemConfig:
    """Full-scale configuration (M=50, M_a=10)."""
    return SystemConfig(**overrides)


def desk_config(**overrides) -> SystemConfig:
    """Reduced IRS size (M=16) for fast runs; everything else full scale."""
    overrides.setdefault("m_passive", 16)
    return paper_config(**overrides)


_NESTED = {"cache": CacheConfig, "geometry": GeometryConfig, "pathloss": PathLossConfig}


def _check_keys(data, cls, context: str) -> None:
    """Raise ConfigError unless ``data`` is a dict keyed by fields of ``cls``
    that holds every field without a default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in {context}")
    for name, f in known.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key '{name}' in {context}")


def read_json_object(path: str | Path, cls, context: str) -> dict:
    """The JSON object, keyed by fields of the dataclass ``cls``, in the UTF-8
    file ``path``. Every failure is a ConfigError that names the path."""
    where = f"{context} {path}"
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {where}: {exc.strerror}") from exc
    except ValueError as exc:       # UnicodeDecodeError or JSONDecodeError
        raise ConfigError(f"{where} is not valid UTF-8 JSON: {exc}") from exc
    _check_keys(data, cls, where)
    return data


def record_from_dict(cls, data: dict, context: str):
    """The ``cls`` record of a JSON object read from ``context``: lists become
    tuples, and a ``SystemConfig``'s nested objects become records. Its
    ConfigError names the context."""
    _check_keys(data, cls, context)
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED and cls is SystemConfig:
            value = record_from_dict(_NESTED[key], value, f"{context}.{key}")
        elif isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def config_from_dict(data: dict) -> SystemConfig:
    return record_from_dict(SystemConfig, data, "config")


def load_config(path: str | Path) -> SystemConfig:
    """Read a JSON config file.  Raises ConfigError naming any offending key."""
    return config_from_dict(read_json_object(path, SystemConfig, "config file"))
