"""Content-addressed tuning database: persisted overlap configurations.

The autotuner (:mod:`repro.tune.search`) replaces the paper's one-shot
analytic gate with search; this module is where its results live. Each
:class:`TuningRecord` binds one *tuning key* — the module's
content fingerprint (:func:`repro.runtime.plan_cache.fingerprint_module`)
plus the mesh and chip fingerprints, the exact coordinates the PR-5 plan
cache already keys compilations on — to the winning
:class:`~repro.core.config.OverlapConfig` and its scores. Because the
key is content-addressed, a tuned config found once is picked up for
free by every later process that builds a structurally identical program
on the same mesh: the serving catalog, ``create_engine(tuned=...)`` and
the experiments all resolve configs through :meth:`TuningDB.config_for`
with zero re-search.

Persistence is one JSON file (schema-versioned, atomically replaced on
save). Failure handling is typed: a corrupted or schema-incompatible
file raises :class:`TuningDBError` from :meth:`TuningDB.load`, and
:meth:`TuningDB.load_or_default` converts that into an *empty* database
(recording the error on ``load_error``) so every caller falls back to
the default analytic-gate configs instead of crashing or — worse —
trusting garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.core.config import AxisOverride, OverlapConfig
from repro.hlo.module import HloModule
from repro.perfsim.hardware import TPU_V4, ChipSpec
from repro.runtime.plan_cache import (
    fingerprint_config,
    fingerprint_mesh,
    fingerprint_module,
)

#: On-disk schema version; bumped on incompatible record changes.
SCHEMA_VERSION = 1

#: Where the committed tuning database lives (the ``repro tune`` CLI,
#: the engines' ``tuned=True`` shorthand and CI all default to it).
#: Override with the ``REPRO_TUNING_DB`` environment variable.
DEFAULT_DB_PATH = "benchmarks/TUNING_DB.json"


def default_db_path() -> str:
    return os.environ.get("REPRO_TUNING_DB", DEFAULT_DB_PATH)


class TuningError(Exception):
    """Base class of every typed autotuner error."""


class TuningDBError(TuningError):
    """The tuning database file is unreadable, corrupted, or
    schema-incompatible. Carries ``path`` for operator triage."""

    def __init__(self, message: str, path: Optional[str] = None) -> None:
        super().__init__(
            message if path is None else f"{path}: {message}"
        )
        self.path = path


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(OverlapConfig)}
_OVERRIDE_FIELDS = {f.name for f in dataclasses.fields(AxisOverride)}


def config_to_json(config: OverlapConfig) -> Dict[str, Any]:
    """The JSON-safe field dict of an :class:`OverlapConfig`.

    ``axis_overrides`` is flattened to ``{axis: {knob: value}}`` with
    unset (``None``) knobs dropped, so single-axis records — the entire
    pre-multi-axis database — serialize exactly as before (``{}``).
    """
    payload = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(OverlapConfig)
    }
    payload["axis_overrides"] = {
        axis: {
            name: getattr(override, name)
            for name in sorted(_OVERRIDE_FIELDS)
            if getattr(override, name) is not None
        }
        for axis, override in config.axis_overrides
    }
    return payload


def _overrides_from_json(overrides: Any) -> Dict[str, AxisOverride]:
    """Rebuild ``axis_overrides`` from its JSON form (or legacy ``[]``)."""
    if isinstance(overrides, Mapping):
        items = list(overrides.items())
    elif isinstance(overrides, (list, tuple)):
        items = [tuple(item) for item in overrides]
    else:
        raise TuningDBError(
            f"axis_overrides must be an object, got "
            f"{type(overrides).__name__}"
        )
    rebuilt: Dict[str, AxisOverride] = {}
    for axis, fields in items:
        if isinstance(fields, AxisOverride):
            rebuilt[axis] = fields
            continue
        if not isinstance(fields, Mapping):
            raise TuningDBError(
                f"axis_overrides[{axis!r}] must be an object, got "
                f"{type(fields).__name__}"
            )
        unknown = sorted(set(fields) - _OVERRIDE_FIELDS)
        if unknown:
            raise TuningDBError(
                f"axis_overrides[{axis!r}] carries unknown AxisOverride "
                f"fields: {unknown}"
            )
        rebuilt[axis] = AxisOverride(**dict(fields))
    return rebuilt


def config_from_json(payload: Mapping[str, Any]) -> OverlapConfig:
    """Rebuild an :class:`OverlapConfig`; typed error on bad payloads.

    Unknown fields and out-of-range values both raise
    :class:`TuningDBError` — a database written by a future schema (or
    corrupted in place) must never silently half-apply. Records written
    before ``axis_overrides`` existed carry no such key and load
    unchanged.
    """
    if not isinstance(payload, Mapping):
        raise TuningDBError(
            f"tuned config must be an object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _CONFIG_FIELDS)
    if unknown:
        raise TuningDBError(
            f"tuned config carries unknown OverlapConfig fields: {unknown}"
        )
    fields = dict(payload)
    if "axis_overrides" in fields:
        fields["axis_overrides"] = _overrides_from_json(
            fields["axis_overrides"]
        )
    try:
        return OverlapConfig(**fields)
    except (TypeError, ValueError) as error:
        raise TuningDBError(f"invalid tuned config: {error}") from error


def chip_fingerprint(chip: ChipSpec) -> str:
    """Short, stable digest of a chip spec (full reprs are unwieldy keys)."""
    digest = hashlib.sha256(fingerprint_config(chip).encode()).hexdigest()
    return f"chip:{digest[:12]}"


def tuning_key(
    module: HloModule,
    mesh: Any,
    chip: ChipSpec = TPU_V4,
) -> str:
    """The content-addressed coordinate of one tuned program.

    ``mesh`` is a :class:`~repro.sharding.mesh.DeviceMesh` or a bare
    ring device count — the same convention as the plan cache, except
    bare counts are canonicalized to the 1D ring mesh so a record tuned
    on ``DeviceMesh.ring(4)`` is found by an engine called with
    ``mesh=4`` and vice versa.
    """
    if isinstance(mesh, int):
        from repro.sharding.mesh import DeviceMesh

        mesh = DeviceMesh.ring(mesh)
    return "|".join(
        (fingerprint_module(module), fingerprint_mesh(mesh),
         chip_fingerprint(chip))
    )


@dataclasses.dataclass(frozen=True)
class TuningRecord:
    """One tuned program: its key, winning config, and the evidence.

    Times are perfsim seconds (the search's primary score);
    ``measured_speedup`` is the optional compiled-engine wall-clock
    cross-check (default config time / tuned config time), and
    ``bit_identical`` records whether the tuned plan's outputs matched
    the interpreter oracle during that spot check (``None`` when the
    search was perfsim-only).
    """

    key: str
    label: str
    config: Mapping[str, Any]
    tuned_time: float
    default_time: float
    trials: int
    scored_by: str = "perfsim"
    sites: int = 0
    measured_speedup: Optional[float] = None
    bit_identical: Optional[bool] = None

    @property
    def speedup(self) -> float:
        """Perfsim speedup of the tuned config over the analytic default."""
        if self.tuned_time <= 0:
            return float("nan")
        return self.default_time / self.tuned_time

    def overlap_config(self) -> OverlapConfig:
        return config_from_json(self.config)

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "TuningRecord":
        if not isinstance(payload, Mapping):
            raise TuningDBError(
                f"tuning record must be an object, got "
                f"{type(payload).__name__}"
            )
        fields = {f.name for f in dataclasses.fields(TuningRecord)}
        unknown = sorted(set(payload) - fields)
        if unknown:
            raise TuningDBError(
                f"tuning record carries unknown fields: {unknown}"
            )
        missing = sorted(
            f.name
            for f in dataclasses.fields(TuningRecord)
            if f.default is dataclasses.MISSING and f.name not in payload
        )
        if missing:
            raise TuningDBError(
                f"tuning record is missing required fields: {missing}"
            )
        record = TuningRecord(**dict(payload))
        config_from_json(record.config)  # validate eagerly, fail typed
        if not isinstance(record.key, str) or record.key.count("|") != 2:
            raise TuningDBError(
                f"malformed tuning key {record.key!r} (expected "
                f"module|mesh|chip fingerprints)"
            )
        for name in ("tuned_time", "default_time"):
            value = getattr(record, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise TuningDBError(
                    f"tuning record field {name} must be a non-negative "
                    f"number, got {value!r}"
                )
        return record


@dataclasses.dataclass
class TuningDBStats:
    """Lookup counters of one :class:`TuningDB` (mirrors CacheStats)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def to_json(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TuningDB:
    """Bounded, persistable map from tuning keys to winning configs.

    Entries keep insertion/update order; beyond ``capacity`` the oldest
    entry is evicted on :meth:`put` (a tuning DB is an accelerator, not
    an archive). The database never mutates its file implicitly — call
    :meth:`save` explicitly (atomic tmp-file + ``os.replace``).
    """

    def __init__(
        self, path: Optional[str] = None, capacity: int = 512
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.path = path
        self.capacity = capacity
        self._records: "OrderedDict[str, TuningRecord]" = OrderedDict()
        self.stats = TuningDBStats()
        self.load_error: Optional[TuningDBError] = None

    # -- container surface --------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[TuningRecord]:
        return iter(list(self._records.values()))

    def get(self, key: str) -> Optional[TuningRecord]:
        return self._records.get(key)

    def put(self, record: TuningRecord) -> None:
        self._records[record.key] = record
        self._records.move_to_end(record.key)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.stats.evictions += 1

    def evict(self, needle: str) -> List[TuningRecord]:
        """Remove every record whose key or label starts with ``needle``
        (so ``mlp-chain`` evicts ``mlp-chain@2`` and ``mlp-chain@4``);
        returns the evicted records."""
        evicted = [
            record
            for key, record in self._records.items()
            if key.startswith(needle) or record.label.startswith(needle)
        ]
        for record in evicted:
            del self._records[record.key]
            self.stats.evictions += 1
        return evicted

    def clear(self) -> None:
        self._records.clear()

    # -- content-addressed lookup -------------------------------------

    def lookup(
        self,
        module: HloModule,
        mesh: Any,
        chip: ChipSpec = TPU_V4,
    ) -> Optional[TuningRecord]:
        """The record for ``module`` on ``mesh``, if one was ever tuned."""
        record = self._records.get(tuning_key(module, mesh, chip))
        if record is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return record

    def config_for(
        self,
        module: HloModule,
        mesh: Any,
        chip: ChipSpec = TPU_V4,
        default: Optional[OverlapConfig] = None,
    ) -> OverlapConfig:
        """The tuned config for ``module`` on ``mesh``, or ``default``
        (the analytic-gate :class:`OverlapConfig`) when never tuned."""
        record = self.lookup(module, mesh, chip)
        if record is None:
            return default if default is not None else OverlapConfig()
        return record.overlap_config()

    # -- persistence ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "entries": [record.to_json() for record in self],
        }

    def save(self, path: Optional[str] = None) -> str:
        """Atomically write the database; returns the path written."""
        target = path or self.path
        if not target:
            raise ValueError("TuningDB.save needs a path")
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=".tuning_db.", suffix=".json", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.path = target
        return target

    @classmethod
    def load(
        cls, path: str, capacity: int = 512
    ) -> "TuningDB":
        """Load a database file; a missing file is an *empty* database
        (first run), anything unreadable raises :class:`TuningDBError`."""
        db = cls(path=path, capacity=capacity)
        if not os.path.exists(path):
            return db
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as error:
            raise TuningDBError(f"cannot read: {error}", path=path)
        except json.JSONDecodeError as error:
            raise TuningDBError(
                f"corrupted JSON: {error}", path=path
            ) from error
        if not isinstance(payload, dict):
            raise TuningDBError(
                f"expected a JSON object, got {type(payload).__name__}",
                path=path,
            )
        if payload.get("schema") != SCHEMA_VERSION:
            raise TuningDBError(
                f"schema {payload.get('schema')!r} is not the supported "
                f"{SCHEMA_VERSION}",
                path=path,
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise TuningDBError("entries must be a list", path=path)
        for entry in entries:
            try:
                db.put(TuningRecord.from_json(entry))
            except TuningDBError as error:
                raise TuningDBError(str(error), path=path) from error
        return db

    @classmethod
    def load_or_default(
        cls, path: Optional[str] = None, capacity: int = 512
    ) -> "TuningDB":
        """Load ``path`` (default: :func:`default_db_path`), falling back
        to an empty database — i.e. to the default analytic-gate configs
        everywhere — when the file is corrupted. The typed error is kept
        on ``load_error`` so callers can surface the degradation."""
        target = path if path is not None else default_db_path()
        try:
            return cls.load(target, capacity=capacity)
        except TuningDBError as error:
            db = cls(path=target, capacity=capacity)
            db.load_error = error
            return db


def resolve_tuning_db(
    tuned: Union[None, bool, str, "TuningDB"]
) -> Optional["TuningDB"]:
    """Normalize every accepted ``tuned=`` spelling to a database.

    ``None``/``False`` → no tuning; ``True`` → the default committed
    database path; a string → that path (both loaded gracefully via
    :meth:`TuningDB.load_or_default`); a :class:`TuningDB` → itself.
    """
    if tuned is None or tuned is False:
        return None
    if tuned is True:
        return TuningDB.load_or_default()
    if isinstance(tuned, str):
        return TuningDB.load_or_default(tuned)
    if isinstance(tuned, TuningDB):
        return tuned
    raise TypeError(
        f"tuned must be a bool, a path, or a TuningDB, got "
        f"{type(tuned).__name__}"
    )
