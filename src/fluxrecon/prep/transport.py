"""Message transports for the distributed pre-processor and solver.

Two implementations of one contract:

* :class:`SimCluster` runs rank programs on in-process threads behind a
  single-token scheduler.  Exactly one thread advances at a time and every
  transport primitive is a yield point, so interleavings are chosen by a
  seeded RNG and runs are fully reproducible.  Message delivery can be
  delayed by a seeded number of receiver probes (head-of-queue only, so
  pairwise FIFO holds).

* :class:`SocketTransport` connects separate worker processes over local
  TCP sockets and exhibits real asynchrony.

The contract mirrors nonblocking synchronous sends, probe-for-any,
receive, and a nonblocking barrier whose completion implies every send
initiated before it was received.
"""

from __future__ import annotations

import random
import select
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import TransportError


@dataclass
class SendHandle:
    done: bool = False


@dataclass
class BarrierHandle:
    done: bool = False


class _SimTransport:
    """Per-rank endpoint of a SimCluster."""

    def __init__(self, cluster: "SimCluster", rank: int):
        self._cluster = cluster
        self.rank = rank

    def issend(self, dest: int, payload: bytes) -> SendHandle:
        return self._cluster._issend(self.rank, dest, payload)

    def iprobe(self) -> Optional[int]:
        return self._cluster._iprobe(self.rank)

    def recv(self, source: int) -> bytes:
        return self._cluster._recv(self.rank, source)

    def ibarrier(self) -> BarrierHandle:
        return self._cluster._ibarrier(self.rank)

    def barrier_test(self, handle: BarrierHandle) -> bool:
        return self._cluster._barrier_test(self.rank, handle)


@dataclass
class RankContext:
    """What a rank program needs to talk to its peers.

    ``epoch``/``stash`` order back-to-back collective exchanges: every
    nbx call gets a fresh epoch and early arrivals for later epochs are
    parked in the stash.
    """

    rank: int
    nranks: int
    transport: object
    epoch: int = 0
    stash: dict = field(default_factory=dict)

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch


class SimCluster:
    """Deterministic in-process rank simulator."""

    _MAIN = -1  # sentinel token holder during thread start-up

    def __init__(self, nranks: int, seed: int = 0, max_delay: int = 3):
        self.nranks = nranks
        self._rng = random.Random(seed)
        self._max_delay = max_delay
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._granted: Optional[int] = self._MAIN
        self._waiting: List[int] = []
        # queues[src][dst]: deque of [payload, handle, remaining_delay]
        self._queues = [
            [deque() for _ in range(nranks)] for _ in range(nranks)
        ]
        self._barrier_entered: set = set()
        self._barrier_handles: Dict[int, BarrierHandle] = {}
        self._errors: List[BaseException] = []

    # -- token scheduling --------------------------------------------------
    # Invariant: at most one rank thread runs between yield points; all the
    # others are parked in _yield_turn.  The seeded RNG therefore sees a
    # reproducible sequence of scheduling decisions.

    def _yield_turn(self, rank: int):
        """Give up the token; return when this rank is granted again."""
        with self._cond:
            if self._errors:
                raise TransportError("peer rank failed") from self._errors[0]
            self._waiting.append(rank)
            self._cond.notify_all()
            if self._granted == rank or self._granted is None:
                self._granted = None
                self._pick_locked()
            while self._granted != rank:
                if self._errors:
                    self._waiting.remove(rank)
                    raise TransportError("peer rank failed") from self._errors[0]
                self._cond.wait(timeout=0.5)
            self._waiting.remove(rank)

    def _pick_locked(self):
        if self._granted is None and self._waiting:
            self._granted = self._rng.choice(sorted(self._waiting))
            self._cond.notify_all()

    def _release(self, rank: int):
        with self._cond:
            if self._granted == rank:
                self._granted = None
            self._pick_locked()

    # -- primitives (called with the token held) --------------------------

    def _issend(self, src: int, dest: int, payload: bytes) -> SendHandle:
        if not 0 <= dest < self.nranks:
            raise TransportError(f"invalid destination rank {dest}")
        self._yield_turn(src)
        handle = SendHandle()
        delay = self._rng.randint(0, self._max_delay)
        self._queues[src][dest].append([bytes(payload), handle, delay])
        return handle

    def _iprobe(self, rank: int) -> Optional[int]:
        self._yield_turn(rank)
        ready = []
        for src in range(self.nranks):
            q = self._queues[src][rank]
            if q:
                if q[0][2] > 0:
                    q[0][2] -= 1
                if q[0][2] == 0:
                    ready.append(src)
        if not ready:
            return None
        return self._rng.choice(ready)

    def _recv(self, rank: int, source: int) -> bytes:
        self._yield_turn(rank)
        q = self._queues[source][rank]
        if not q or q[0][2] > 0:
            raise TransportError(f"recv from {source} without a ready message")
        payload, handle, _ = q.popleft()
        handle.done = True
        return payload

    def _ibarrier(self, rank: int) -> BarrierHandle:
        self._yield_turn(rank)
        handle = BarrierHandle()
        self._barrier_entered.add(rank)
        self._barrier_handles[rank] = handle
        if len(self._barrier_entered) == self.nranks:
            for h in self._barrier_handles.values():
                h.done = True
            self._barrier_entered.clear()
            self._barrier_handles.clear()
        return handle

    def _barrier_test(self, rank: int, handle: BarrierHandle) -> bool:
        self._yield_turn(rank)
        return handle.done

    # -- driver ------------------------------------------------------------

    def run(self, program: Callable, *args) -> list:
        """Run ``program(ctx, *args)`` on every rank; return per-rank results.

        Single use: build a fresh cluster per collective run.
        """
        results: list = [None] * self.nranks
        threads = []

        def worker(rank: int):
            ctx = RankContext(rank, self.nranks, _SimTransport(self, rank))
            try:
                self._yield_turn(rank)  # line up at the starting gate
                results[rank] = program(ctx, *args)
            except BaseException as exc:  # noqa: BLE001 - propagate to driver
                with self._cond:
                    self._errors.append(exc)
                    self._cond.notify_all()
            finally:
                self._release(rank)

        for r in range(self.nranks):
            t = threading.Thread(target=worker, args=(r,), daemon=True)
            threads.append(t)
        for t in threads:
            t.start()
        # hold the gate until every rank is parked, then hand over the token
        with self._cond:
            while len(self._waiting) < self.nranks and not self._errors:
                self._cond.wait(timeout=0.5)
            self._granted = None
            self._pick_locked()
        for t in threads:
            t.join(timeout=300.0)
            if t.is_alive():
                with self._cond:
                    self._errors.append(TransportError("rank deadlocked (join timeout)"))
                    self._cond.notify_all()
                raise TransportError("simulated cluster deadlock: a rank did not finish")
        if self._errors:
            raise self._errors[0]
        return results


def run_simulated(nranks: int, program: Callable, *args, seed: int = 0,
                  max_delay: int = 3) -> list:
    """One-shot convenience wrapper around SimCluster.run."""
    return SimCluster(nranks, seed=seed, max_delay=max_delay).run(program, *args)


# ---------------------------------------------------------------------------
# Socket transport (multi-process)
# ---------------------------------------------------------------------------

_MSG_DATA = 1
_MSG_ACK = 2
_MSG_BARRIER_ENTER = 3
_MSG_BARRIER_DONE = 4
_MSG_FIN = 5

_FIN_TIMEOUT = 60.0  # seconds close() waits for every peer's FIN

_HEADER = struct.Struct("<BQQ")  # kind, seq, length


class SocketTransport:
    """Full-mesh TCP transport between local worker processes.

    Rank r listens on ``base_port + r``; every rank connects to all lower
    ranks.  A data message completes its send handle when the receiver
    calls ``recv`` for it (synchronous-send semantics, carried by an ACK).
    The nonblocking barrier is a gather/broadcast through rank 0.
    ``close`` is a handshake: a rank sends FIN to every peer and closes
    only once every peer's FIN has arrived, so end-of-file from a peer is
    an error unless that peer's FIN came first.
    """

    def __init__(self, rank: int, nranks: int, base_port: int,
                 host: str = "127.0.0.1", connect_timeout: float = 30.0):
        self.rank = rank
        self.nranks = nranks
        self._peers: Dict[int, socket.socket] = {}
        self._inbox: Dict[int, deque] = {rank: deque() for rank in range(nranks)}
        self._pending_send: Dict[int, SendHandle] = {}
        self._next_seq = 0
        self._rxbuf: Dict[int, bytearray] = {}
        self._barrier_entered: set = set()
        self._barrier_handle: Optional[BarrierHandle] = None
        self._fin_from: set = set()

        if nranks == 1:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, base_port + rank))
        listener.listen(nranks)
        # connect to lower ranks, accept from higher ranks; a failed
        # connect poisons the socket, so retry with a fresh one
        for peer in range(rank):
            deadline = connect_timeout
            while True:
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                s.settimeout(connect_timeout)
                try:
                    s.connect((host, base_port + peer))
                    break
                except (ConnectionRefusedError, OSError):
                    s.close()
                    deadline -= 0.05
                    if deadline <= 0:
                        raise TransportError(f"rank {rank}: cannot reach rank {peer}")
                    threading.Event().wait(0.05)
            s.sendall(struct.pack("<Q", rank))
            s.setblocking(True)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._peers[peer] = s
        listener.settimeout(connect_timeout)
        for _ in range(nranks - 1 - rank):
            try:
                s, _addr = listener.accept()
                s.settimeout(connect_timeout)
                hello = self._read_exact(s, 8)
            except socket.timeout:
                missing = sorted(set(range(rank + 1, nranks)) - set(self._peers))
                listener.close()
                raise TransportError(f"rank {rank}: no connection from ranks {missing} "
                                     f"within {connect_timeout:g} s") from None
            peer = struct.unpack("<Q", hello)[0]
            s.setblocking(True)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._peers[peer] = s
        listener.close()
        for s in self._peers.values():
            s.setblocking(False)
            self._rxbuf[s.fileno()] = bytearray()
        self._sock_of = {s.fileno(): (p, s) for p, s in self._peers.items()}

    @staticmethod
    def _read_exact(sock: socket.socket, nbytes: int) -> bytes:
        buf = b""
        while len(buf) < nbytes:
            chunk = sock.recv(nbytes - len(buf))
            if not chunk:
                raise TransportError("peer closed during handshake")
            buf += chunk
        return buf

    def _send_frame(self, peer: int, kind: int, seq: int, payload: bytes = b""):
        frame = _HEADER.pack(kind, seq, len(payload)) + payload
        sock = self._peers[peer]
        sock.setblocking(True)
        try:
            sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"rank {self.rank}: cannot send to peer {peer}") from exc
        finally:
            sock.setblocking(False)

    def _pump(self, wait: float = 0.0):
        """Drain readable sockets into the inbox; handle control frames.
        The first poll blocks for up to ``wait`` seconds."""
        if self.nranks == 1:
            return
        while True:
            readable, _, _ = select.select(list(self._sock_of), [], [], wait)
            wait = 0.0
            if not readable:
                return
            for fd in readable:
                peer, sock = self._sock_of[fd]
                try:
                    data = sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    raise TransportError(f"rank {self.rank}: peer {peer} closed") from exc
                if not data:
                    if peer not in self._fin_from:
                        raise TransportError(f"rank {self.rank}: peer {peer} closed")
                    del self._sock_of[fd]
                    sock.close()
                    continue
                buf = self._rxbuf[fd]
                buf.extend(data)
                while len(buf) >= _HEADER.size:
                    kind, seq, ln = _HEADER.unpack(bytes(buf[:_HEADER.size]))
                    if len(buf) < _HEADER.size + ln:
                        break
                    payload = bytes(buf[_HEADER.size:_HEADER.size + ln])
                    del buf[:_HEADER.size + ln]
                    self._dispatch(peer, kind, seq, payload)

    def _dispatch(self, peer: int, kind: int, seq: int, payload: bytes):
        if kind == _MSG_DATA:
            self._inbox[peer].append((seq, payload))
        elif kind == _MSG_ACK:
            handle = self._pending_send.pop(seq, None)
            if handle is not None:
                handle.done = True
        elif kind == _MSG_BARRIER_ENTER:
            self._barrier_entered.add(peer)
            self._maybe_finish_barrier()
        elif kind == _MSG_BARRIER_DONE:
            if self._barrier_handle is None:
                raise TransportError("barrier completion without an open barrier")
            self._barrier_handle.done = True
            self._barrier_handle = None
        elif kind == _MSG_FIN:
            self._fin_from.add(peer)
        else:
            raise TransportError(f"unknown frame kind {kind}")

    def _maybe_finish_barrier(self):
        # the root may only complete the barrier it has itself entered;
        # early ENTER frames for the next collective wait in the set
        if self.rank != 0:
            return
        if self._barrier_handle is None:
            return
        if len(self._barrier_entered) == self.nranks - 1:
            for peer in range(1, self.nranks):
                self._send_frame(peer, _MSG_BARRIER_DONE, 0)
            self._barrier_entered.clear()
            self._barrier_handle.done = True
            self._barrier_handle = None

    # -- contract ----------------------------------------------------------

    def issend(self, dest: int, payload: bytes) -> SendHandle:
        handle = SendHandle()
        if dest == self.rank:
            self._inbox[dest].append((self._next_seq, bytes(payload)))
            handle.done = True
            self._next_seq += 1
            return handle
        seq = self._next_seq
        self._next_seq += 1
        self._pending_send[seq] = handle
        self._send_frame(dest, _MSG_DATA, seq, payload)
        return handle

    def iprobe(self) -> Optional[int]:
        self._pump()
        for peer in range(self.nranks):
            if self._inbox[peer]:
                return peer
        return None

    def recv(self, source: int) -> bytes:
        self._pump()
        if not self._inbox[source]:
            raise TransportError(f"recv from {source} with empty inbox")
        seq, payload = self._inbox[source].popleft()
        if source != self.rank:
            self._send_frame(source, _MSG_ACK, seq)
        return payload

    def ibarrier(self) -> BarrierHandle:
        handle = BarrierHandle()
        if self.nranks == 1:
            handle.done = True
            return handle
        self._barrier_handle = handle
        if self.rank == 0:
            self._maybe_finish_barrier()
        else:
            self._send_frame(0, _MSG_BARRIER_ENTER, 0)
        return handle

    def barrier_test(self, handle: BarrierHandle) -> bool:
        self._pump()
        if self.rank == 0:
            self._maybe_finish_barrier()
        return handle.done

    def close(self):
        """Send FIN to every peer, wait for every peer's FIN, then close."""
        try:
            for peer in self._peers:
                self._send_frame(peer, _MSG_FIN, 0)
            deadline = time.monotonic() + _FIN_TIMEOUT
            while not self._fin_from.issuperset(self._peers):
                if time.monotonic() > deadline:
                    missing = sorted(set(self._peers) - self._fin_from)
                    raise TransportError(
                        f"rank {self.rank}: no FIN from peers {missing} "
                        f"within {_FIN_TIMEOUT:g} s")
                self._pump(wait=0.05)
        finally:
            for s in self._peers.values():
                try:
                    s.close()
                except OSError:
                    pass
