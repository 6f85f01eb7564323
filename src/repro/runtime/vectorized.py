"""Device-stacked (vectorized) tensor operations.

The compiled execution engine stores every SPMD value as **one** numpy
array of shape ``(num_devices, *shard_shape)`` instead of a Python list
of per-device shards. Each function here implements one HLO op or
collective over that layout as a single numpy call (a batched einsum, an
advanced-indexing gather, a reshape) so executing a module costs O(ops)
numpy dispatches instead of O(ops * devices).

Validation is hoisted: :class:`GroupIndex` performs replica-group
coverage checks once at construction (compile time for the compiled
engine, call time for the per-device wrappers in
``repro.runtime.collectives``), and :func:`collective_permute` assumes
its pairs were already validated.

Bit-exactness contract: every function must produce, row for row, the
exact bytes of the per-device reference implementations — the
equivalence tests assert ``np.array_equal``, not closeness. Batched
``np.einsum`` and axis-sums share numpy's reduction order with their
looped counterparts, which is what makes this possible.
"""

from __future__ import annotations

import dataclasses
import string
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.faults.errors import ReplicaGroupError

Groups = Sequence[Tuple[int, ...]]


# --- layout ------------------------------------------------------------------


def stack(shards: Sequence[np.ndarray]) -> np.ndarray:
    """Stack per-device shards into the ``(n, *shard)`` layout."""
    return np.stack(shards)


def unstack(stacked: np.ndarray) -> List[np.ndarray]:
    """Per-device views of a stacked array (row ``d`` is device ``d``)."""
    return list(stacked)


# --- einsum ------------------------------------------------------------------


def batched_equation(equation: str) -> str:
    """Rewrite a two-operand einsum equation to batch over the device axis.

    ``"bf,fh->bh"`` becomes ``"Zbf,Zfh->Zbh"`` (using any letter the
    equation does not already mention), so one ``np.einsum`` call contracts
    every device's shards at once.
    """
    used = set(equation)
    batch = next(
        (c for c in string.ascii_uppercase + string.ascii_lowercase
         if c not in used),
        None,
    )
    if batch is None:  # pragma: no cover - 52 live letters in one equation
        raise ValueError(f"no free index letter for equation {equation!r}")
    inputs, output = equation.split("->")
    lhs, rhs = inputs.split(",")
    return f"{batch}{lhs},{batch}{rhs}->{batch}{output}"


# --- dynamic slicing ---------------------------------------------------------


def along_axis_index(
    offsets: np.ndarray, size: int, rank: int, dim: int
) -> np.ndarray:
    """Index tensor for take/put_along_axis on a stacked array.

    ``offsets`` holds each device's start element along shard dimension
    ``dim`` (stacked axis ``dim + 1``); the result has shape
    ``(n, 1, ..., size, ..., 1)`` — broadcastable against the stacked
    operand everywhere except the indexed axis.
    """
    n = offsets.shape[0]
    return offsets.reshape([n] + [1] * rank) + np.arange(
        size, dtype=np.int64
    ).reshape([1] * (dim + 1) + [size] + [1] * (rank - dim - 1))


def dynamic_slice(
    stacked: np.ndarray, dim: int, offsets: np.ndarray, size: int
) -> np.ndarray:
    """Per-device windows ``[offset_d, offset_d + size)`` along ``dim``."""
    index = along_axis_index(offsets, size, stacked.ndim - 1, dim)
    return np.take_along_axis(stacked, index, axis=dim + 1)


def dynamic_update_slice(
    target: np.ndarray,
    update: np.ndarray,
    dim: int,
    offsets: np.ndarray,
) -> None:
    """Write ``update`` into ``target`` (in place) at per-device offsets."""
    size = update.shape[dim + 1]
    index = along_axis_index(offsets, size, target.ndim - 1, dim)
    np.put_along_axis(target, index, update, axis=dim + 1)


# --- collectives -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GroupIndex:
    """Precomputed replica-group index arrays for one collective.

    ``members[g, p]`` is the device at position ``p`` of group ``g``;
    ``group_of[d]`` / ``position_of[d]`` invert that. Construction
    validates coverage once so the per-run hot path never re-checks.
    """

    members: np.ndarray
    group_of: np.ndarray
    position_of: np.ndarray

    @property
    def group_size(self) -> int:
        return int(self.members.shape[1])

    @staticmethod
    def uniform(groups: Groups) -> bool:
        """Whether all groups have the same size (stackable outputs)."""
        return len({len(group) for group in groups}) == 1

    @classmethod
    def build(cls, num_devices: int, groups: Groups) -> "GroupIndex":
        if not GroupIndex.uniform(groups):
            raise ReplicaGroupError(
                f"replica groups must have uniform size for the stacked "
                f"layout, got {[tuple(g) for g in groups]}"
            )
        group_of = np.full(num_devices, -1, dtype=np.int64)
        position_of = np.full(num_devices, -1, dtype=np.int64)
        for g, group in enumerate(groups):
            for p, device in enumerate(group):
                if 0 <= device < num_devices:
                    group_of[device] = g
                    position_of[device] = p
        missing = np.nonzero(group_of < 0)[0]
        if missing.size:
            raise ReplicaGroupError(
                f"device {int(missing[0])} missing from replica groups "
                f"{[tuple(g) for g in groups]}",
                device=int(missing[0]),
            )
        members = np.asarray(
            [list(group) for group in groups], dtype=np.int64
        )
        return cls(members, group_of, position_of)


def all_gather(
    stacked: np.ndarray, dim: int, index: GroupIndex
) -> np.ndarray:
    """Concatenate the group's shards along ``dim`` on every member."""
    picked = stacked[index.members]        # (G, g, *shard)
    # Concatenating g blocks along shard axis `dim` == move the member
    # axis next to it and merge the two.
    moved = np.moveaxis(picked, 1, dim + 1)
    shape = list(picked.shape[:1]) + list(picked.shape[2:])
    shape[dim + 1] *= index.group_size
    gathered = moved.reshape(shape)        # (G, *gathered_shard)
    return gathered[index.group_of]


def reduce_scatter(
    stacked: np.ndarray, dim: int, index: GroupIndex
) -> np.ndarray:
    """Element-wise sum over the group, then shard along ``dim``."""
    g = index.group_size
    total = stacked[index.members].sum(axis=1)   # (G, *shard)
    shape = list(total.shape)
    if shape[dim + 1] % g:
        raise ValueError(
            f"dimension {dim} of size {shape[dim + 1]} not divisible by "
            f"group size {g}"
        )
    shape[dim + 1] //= g
    shape.insert(dim + 1, g)
    parts = np.moveaxis(total.reshape(shape), dim + 1, 1)  # (G, g, *piece)
    return parts[index.group_of, index.position_of]


def all_reduce(stacked: np.ndarray, index: GroupIndex) -> np.ndarray:
    """Element-wise sum over the group, replicated on every member."""
    total = stacked[index.members].sum(axis=1)   # (G, *shard)
    return total[index.group_of]


def all_to_all(
    stacked: np.ndarray, split_dim: int, concat_dim: int, index: GroupIndex
) -> np.ndarray:
    """Device ``i`` of a group sends its ``j``-th split to device ``j``."""
    g = index.group_size
    picked = stacked[index.members]        # (G, src, *shard)
    shape = list(picked.shape)
    if shape[split_dim + 2] % g:
        raise ValueError(
            f"dimension {split_dim} of size {shape[split_dim + 2]} not "
            f"divisible by group size {g}"
        )
    shape[split_dim + 2] //= g
    shape.insert(split_dim + 2, g)
    split = picked.reshape(shape)          # (G, src, ..., dstpos, chunk, ..)
    # Receiver at position p concatenates, over sources q in group order,
    # split q's p-th piece along concat_dim: swap src <-> dstpos, then
    # merge src into the concat axis.
    swapped = np.swapaxes(split, 1, split_dim + 2)
    moved = np.moveaxis(swapped, split_dim + 2, concat_dim + 2)
    shape = list(moved.shape)
    del shape[concat_dim + 2]
    shape[concat_dim + 2] *= g
    merged = moved.reshape(shape)          # (G, dstpos, *out_shard)
    return merged[index.group_of, index.position_of]


def permute_index(
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Source/destination index vectors for :func:`collective_permute`."""
    sources = np.asarray([src for src, _ in pairs], dtype=np.int64)
    destinations = np.asarray([dst for _, dst in pairs], dtype=np.int64)
    return sources, destinations


def collective_permute(
    stacked: np.ndarray, sources: np.ndarray, destinations: np.ndarray
) -> np.ndarray:
    """Point-to-point sends; devices receiving nothing get zeros.

    ``sources``/``destinations`` come from :func:`permute_index`; the
    pairs are assumed to be already validated (the compiled engine
    validates once at lowering time).
    """
    out = np.zeros_like(stacked)
    if sources.size:
        out[destinations] = stacked[sources]
    return out


def missing_rows(destinations: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows in ``[lo, hi)`` that receive no transfer (zeroed outputs)."""
    received = np.bincount(destinations, minlength=hi)[lo:hi]
    return np.flatnonzero(received == 0) + lo


def deferred_permute(
    sources: np.ndarray,
    destinations: np.ndarray,
    stacked_shape: Tuple[int, ...],
) -> Callable[[np.ndarray], np.ndarray]:
    """Done-step kernel of an async permute whose start deferred it.

    Cheaper than :func:`collective_permute` (``zeros_like`` + scatter):
    it allocates without zero-filling and only zeroes the rows that
    receive nothing — for a full ring, no zero pass at all.
    """
    missing = missing_rows(destinations, 0, stacked_shape[0])

    def fn(operand: np.ndarray) -> np.ndarray:
        out = np.empty(stacked_shape, dtype=np.float64)
        if destinations.size:
            out[destinations] = operand[sources]
        if missing.size:
            out[missing] = 0.0
        return out

    return fn
