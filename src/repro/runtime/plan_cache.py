"""Content-addressed compiled-plan cache shared by engines and serving.

Lowering an :class:`~repro.hlo.module.HloModule` (and, one layer up,
running the whole overlap pipeline on it) is pure: the result depends
only on the module's *content*, the mesh, the
:class:`~repro.core.config.OverlapConfig` and the engine options. This
module provides the two pieces every caller shares:

* :func:`fingerprint_module` — a canonical, *name-independent* content
  fingerprint. Instruction names embed a process-global counter, so two
  builds of the same program never print identically; the fingerprint
  instead renames every value to its program-order index (While bodies
  recurse, ``body_outputs`` map into the body's index space). Two
  structurally identical programs therefore share one fingerprint — and
  one cache entry — no matter when or where they were built.
* :class:`PlanCache` — a bounded, thread-safe LRU keyed by such
  fingerprints (plus mesh/config/options), with hit/miss/eviction
  statistics the serving layer and the CI gates report.

The fingerprint is memoized on the module object and revalidated
against the identity of its instruction list, so the hot path of a
cache hit costs one tuple comparison plus one dict lookup — not a
re-print of the program. One caveat: mutating an instruction's
``attrs`` in place without touching the instruction list is not
detected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TypeVar

from repro.hlo.module import HloModule

T = TypeVar("T")

_MEMO_ATTR = "_repro_content_fingerprint"


def _canonical_text(module: HloModule) -> str:
    """Render ``module`` with every value renamed to its program-order
    index. Deterministic across processes and rebuilds."""
    index: Dict[str, int] = {}
    lines = []
    for position, instr in enumerate(module):
        index[instr.name] = position
        parts = [
            instr.opcode.value,
            str(instr.shape),
            "(" + ",".join(str(index[op.name]) for op in instr.operands) + ")",
        ]
        for key in sorted(instr.attrs):
            value = instr.attrs[key]
            if isinstance(value, HloModule):
                rendered = "{" + _canonical_text(value) + "}"
            elif key == "body_outputs" and isinstance(
                instr.attrs.get("body"), HloModule
            ):
                body_index = {
                    inner.name: j
                    for j, inner in enumerate(instr.attrs["body"])
                }
                rendered = repr([body_index.get(n, n) for n in value])
            elif hasattr(value, "tolist"):  # numpy constant payloads
                rendered = repr(value.tolist())
            else:
                rendered = repr(value)
            parts.append(f"{key}={rendered}")
        if instr.fusion_group is not None:
            parts.append(f"fusion={instr.fusion_group}")
        lines.append(f"{position}: " + " ".join(parts))
    root = index[module.root.name] if module.root is not None else -1
    lines.append(f"root={root}")
    return "\n".join(lines)


def _identity(module: HloModule) -> Tuple[int, ...]:
    return tuple(id(instr) for instr in module)


def fingerprint_module(module: HloModule) -> str:
    """Stable hex digest of the module's content (names excluded)."""
    memo = getattr(module, _MEMO_ATTR, None)
    identity = _identity(module)
    if memo is not None and memo[0] == identity:
        return memo[1]
    digest = hashlib.sha256(_canonical_text(module).encode()).hexdigest()
    setattr(module, _MEMO_ATTR, (identity, digest))
    return digest


def fingerprint_mesh(mesh: Any) -> str:
    """Fingerprint of a :class:`~repro.sharding.mesh.DeviceMesh` (or a
    bare device count, for ring-only callers)."""
    if isinstance(mesh, int):
        return f"ring:{mesh}"
    return f"{mesh.axis_names}:{mesh.axis_sizes}"


def fingerprint_config(config: Any) -> str:
    """Fingerprint of an OverlapConfig / ChipSpec / any frozen dataclass
    (or ``None``)."""
    if config is None:
        return "none"
    if dataclasses.is_dataclass(config):
        return repr(config)
    return repr(config)


def plan_key(
    module: HloModule,
    *,
    num_devices: int,
    outputs: Optional[Sequence[str]] = None,
    config: Any = None,
    options: Tuple = (),
) -> Tuple:
    """The cache key for one lowered plan: content fingerprint of the
    module plus everything else lowering depends on."""
    return (
        "plan",
        fingerprint_module(module),
        num_devices,
        tuple(outputs) if outputs is not None else None,
        fingerprint_config(config),
        options,
    )


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """Bounded, thread-safe LRU cache for compiled artifacts.

    Values are opaque: the compiled engine stores
    :class:`~repro.runtime.plan.CompiledPlan` objects, the experiment
    pipeline stores :class:`~repro.core.pipeline.CompilationResult`
    objects. Keys must be hashable; build them with :func:`plan_key`
    (or any tuple that captures everything the value depends on).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def get_or_build(
        self, key: Tuple, build: Callable[[], T]
    ) -> Tuple[T, bool]:
        """Return ``(value, hit)``; builds and inserts on a miss.

        ``build`` runs outside the lock — two threads racing on the
        same cold key may both build; the second insert wins, which is
        harmless because builds are pure.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key], True
            self.stats.misses += 1
        value = build()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value, False
