"""Worker-restricted collective kernels.

Each builder precomputes, at lowering time, the index arrays one worker
needs to produce *its* rows ``[lo, hi)`` of a collective's stacked
output, and returns a closure ``fn(stacked, out)`` writing exactly
those rows of ``out``.

Bit-exactness contract: every kernel restricts the corresponding full
kernel in :mod:`repro.runtime.vectorized` to the replica groups that
own rows in ``[lo, hi)`` *without* changing the per-group arithmetic —
the member axis keeps its group order, so axis-sums see the same
addends in the same order and produce the same bytes as the
single-threaded engine (and hence the interpreter).

Synchronous kernels read foreign rows of ``stacked``; their callers
bracket them between the run barrier's entry and exit waits.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from repro.runtime.vectorized import GroupIndex, missing_rows

Kernel = Callable[[np.ndarray, np.ndarray], None]


def _group_restriction(
    index: GroupIndex, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(members_w, inverse, position) for the groups owning [lo, hi).

    ``members_w[k]`` lists group ``unique[k]``'s devices; ``inverse[r]``
    maps local row ``lo + r`` to its position ``k`` in ``unique``;
    ``position`` is ``position_of[lo:hi]``.
    """
    unique, inverse = np.unique(index.group_of[lo:hi], return_inverse=True)
    return index.members[unique], inverse, index.position_of[lo:hi]


def make_all_gather(index: GroupIndex, dim: int, lo: int, hi: int) -> Kernel:
    members_w, inverse, _ = _group_restriction(index, lo, hi)
    g = index.group_size

    def fn(stacked: np.ndarray, out: np.ndarray) -> None:
        picked = stacked[members_w]            # (Gw, g, *shard)
        moved = np.moveaxis(picked, 1, dim + 1)
        shape = list(picked.shape[:1]) + list(picked.shape[2:])
        shape[dim + 1] *= g
        out[lo:hi] = moved.reshape(shape)[inverse]

    return fn


def make_reduce_scatter(
    index: GroupIndex, dim: int, lo: int, hi: int
) -> Kernel:
    members_w, inverse, position = _group_restriction(index, lo, hi)
    g = index.group_size

    def fn(stacked: np.ndarray, out: np.ndarray) -> None:
        total = stacked[members_w].sum(axis=1)  # (Gw, *shard)
        shape = list(total.shape)
        shape[dim + 1] //= g
        shape.insert(dim + 1, g)
        parts = np.moveaxis(total.reshape(shape), dim + 1, 1)
        out[lo:hi] = parts[inverse, position]

    return fn


def make_all_reduce(index: GroupIndex, lo: int, hi: int) -> Kernel:
    members_w, inverse, _ = _group_restriction(index, lo, hi)

    def fn(stacked: np.ndarray, out: np.ndarray) -> None:
        out[lo:hi] = stacked[members_w].sum(axis=1)[inverse]

    return fn


def make_all_to_all(
    index: GroupIndex, split_dim: int, concat_dim: int, lo: int, hi: int
) -> Kernel:
    members_w, inverse, position = _group_restriction(index, lo, hi)
    g = index.group_size

    def fn(stacked: np.ndarray, out: np.ndarray) -> None:
        picked = stacked[members_w]            # (Gw, src, *shard)
        shape = list(picked.shape)
        shape[split_dim + 2] //= g
        shape.insert(split_dim + 2, g)
        split = picked.reshape(shape)
        swapped = np.swapaxes(split, 1, split_dim + 2)
        moved = np.moveaxis(swapped, split_dim + 2, concat_dim + 2)
        shape = list(moved.shape)
        del shape[concat_dim + 2]
        shape[concat_dim + 2] *= g
        out[lo:hi] = moved.reshape(shape)[inverse, position]

    return fn


def make_collective_permute(
    sources: np.ndarray, destinations: np.ndarray, lo: int, hi: int
) -> Kernel:
    """Synchronous permute: scatter into the destination rows this
    worker owns, zero the rest of its range."""
    mask = (destinations >= lo) & (destinations < hi)
    dst_w = destinations[mask]
    src_w = sources[mask]
    zero_w = missing_rows(destinations, lo, hi)

    def fn(stacked: np.ndarray, out: np.ndarray) -> None:
        if zero_w.size:
            out[zero_w] = 0.0
        if dst_w.size:
            out[dst_w] = stacked[src_w]

    return fn


def route_pairs(
    pairs: Sequence[Tuple[int, int]], bounds: Sequence[int]
) -> Tuple[dict, dict]:
    """Split permute pairs by the workers owning source and destination.

    Returns ``(outgoing, incoming)``:

    * ``outgoing[u]`` — list of ``(v, src_rows)``: worker ``u`` posts
      ``operand[src_rows]`` (rows it owns) to worker ``v``;
    * ``incoming[v]`` — list of ``(u, dst_rows)``: worker ``v`` receives
      a payload from ``u`` and scatters it to ``dst_rows`` (rows it
      owns), in the same pair order the producer packed.
    """
    def owner(row: int) -> int:
        for w in range(len(bounds) - 1):
            if bounds[w] <= row < bounds[w + 1]:
                return w
        raise ValueError(f"row {row} outside device range")

    routes: dict = {}
    for src, dst in pairs:
        routes.setdefault((owner(src), owner(dst)), []).append((src, dst))
    outgoing: dict = {}
    incoming: dict = {}
    for (u, v), route in sorted(routes.items()):
        src_rows = np.asarray([s for s, _ in route], dtype=np.int64)
        dst_rows = np.asarray([d for _, d in route], dtype=np.int64)
        outgoing.setdefault(u, []).append((v, src_rows))
        incoming.setdefault(v, []).append((u, dst_rows))
    return outgoing, incoming


__all__ = [
    "Kernel",
    "make_all_gather",
    "make_all_reduce",
    "make_all_to_all",
    "make_collective_permute",
    "make_reduce_scatter",
    "route_pairs",
]
