"""Cumulative-storage entity distribution and the nonblocking-consensus
sparse exchange, plus small collectives built on top of it."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import TransportError
from .transport import RankContext

_EPOCH = struct.Struct("<Q")


@dataclass(frozen=True)
class EntityRange:
    """Half-open slice [begin, end) of a globally numbered entity set."""

    begin: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.begin


def distribute_entities(global_count: int, nranks: int, rank: int) -> EntityRange:
    """Contiguous balanced chunk for one rank.

    The first ``global_count % nranks`` ranks carry one extra entity, so
    chunk sizes differ by at most one.
    """
    if nranks < 1 or not 0 <= rank < nranks:
        raise ValueError(f"bad rank/nranks: {rank}/{nranks}")
    base, rem = divmod(global_count, nranks)
    begin = rank * base + min(rank, rem)
    size = base + (1 if rank < rem else 0)
    return EntityRange(begin, begin + size)


def nbx_exchange(ctx: RankContext, sbuffers: Dict[int, bytes]) -> Dict[int, bytes]:
    """Sparse all-to-all without prior knowledge of senders.

    Posts nonblocking synchronous sends, then loops probe/receive; once the
    local sends completed it enters a nonblocking barrier, whose completion
    on every rank implies global quiescence.  Returns the messages this
    rank received, keyed by source.

    Back-to-back exchanges are kept apart by an epoch tag: a message from a
    peer that already advanced to the next collective is parked and handed
    to this rank's next call.
    """
    t = ctx.transport
    epoch = ctx.next_epoch()
    handles = []
    for dest, payload in sorted(sbuffers.items()):
        if payload:
            if not 0 <= dest < ctx.nranks:
                raise TransportError(f"invalid destination rank {dest}")
            handles.append(t.issend(dest, _EPOCH.pack(epoch) + payload))
    received: Dict[int, list] = {}
    for src, parts in ctx.stash.pop(epoch, {}).items():
        received.setdefault(src, []).extend(parts)
    barrier = None
    while True:
        src = t.iprobe()
        if src is not None:
            frame = t.recv(src)
            msg_epoch = _EPOCH.unpack(frame[:_EPOCH.size])[0]
            payload = frame[_EPOCH.size:]
            if msg_epoch == epoch:
                received.setdefault(src, []).append(payload)
            elif msg_epoch > epoch:
                ctx.stash.setdefault(msg_epoch, {}).setdefault(src, []).append(payload)
            else:
                raise TransportError(
                    f"stale message from rank {src}: epoch {msg_epoch} < {epoch}"
                )
        if barrier is None and all(h.done for h in handles):
            barrier = t.ibarrier()
        elif barrier is not None and t.barrier_test(barrier):
            break
    return {src: b"".join(parts) for src, parts in sorted(received.items())}


def allreduce_min(ctx: RankContext, value: float) -> float:
    """Global minimum with a fixed rank-ordered reduction."""
    return _allreduce(ctx, value, op="min")


def allreduce_sum(ctx: RankContext, value) -> np.ndarray:
    """Global elementwise sum, reduced in rank order for reproducibility."""
    return _allreduce(ctx, value, op="sum")


def _allreduce(ctx: RankContext, value, op: str):
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    payload = arr.tobytes()
    sbuf = {r: payload for r in range(ctx.nranks) if r != ctx.rank}
    recv = nbx_exchange(ctx, sbuf)
    parts = {ctx.rank: arr}
    for src, buf in recv.items():
        parts[src] = np.frombuffer(buf, dtype=np.float64)
    acc = parts[0].copy()
    for r in range(1, ctx.nranks):
        acc = np.minimum(acc, parts[r]) if op == "min" else acc + parts[r]
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(acc[0])
    return acc
