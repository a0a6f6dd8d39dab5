"""Immutable medium state: one FIFO queue per ordered place pair.

Immutability is what lets the verification harness treat a whole
distributed system (entities + medium) as an LTS state and explore it
exhaustively; the runtime executor uses the same type, just along one
path.

Two delivery disciplines are supported:

``"fifo"``
    a receive action matches only the *head* of its channel.  This is the
    paper's stated medium model (Section 1: each channel "is assumed to
    be a FIFO queue whose capacity is infinite").

``"selective"``
    a receive action may take the first *matching* message anywhere in
    the queue.  This reproduces the behaviour of the Section 5.2 LOTOS
    medium, where each message type synchronizes independently, and is
    the right model when stale messages may linger (disable shortcoming
    (i), Section 3.3).

``capacity`` bounds the number of in-flight messages per channel
(``None`` = unbounded; the Section 5 proof assumes ``1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.lotos.events import SyncMessage

ChannelKey = Tuple[int, int]  # (source place, destination place)

DISCIPLINES = ("fifo", "selective")


@dataclass(frozen=True)
class MediumState:
    """Frozen snapshot of every channel's queue.

    ``channels`` holds only the nonempty queues, sorted by key, so equal
    medium contents always hash identically.  Equality is structural;
    the hash is computed once per object, like ``Behaviour``'s, since
    LTS construction and the trace search hash the same states again
    and again.
    """

    channels: Tuple[Tuple[ChannelKey, Tuple[SyncMessage, ...]], ...] = ()
    capacity: Optional[int] = None
    discipline: str = field(default="fifo")

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; pick from {DISCIPLINES}"
            )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            # -1 stands for an unbounded (None) capacity: ``hash(None)``
            # is the object's address before Python 3.12.
            capacity = -1 if self.capacity is None else self.capacity
            cached = hash((self.channels, capacity, self.discipline))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never ship the cache.
        return {
            "channels": self.channels,
            "capacity": self.capacity,
            "discipline": self.discipline,
        }

    # ------------------------------------------------------------------
    def queue(self, src: int, dest: int) -> Tuple[SyncMessage, ...]:
        for key, messages in self.channels:
            if key == (src, dest):
                return messages
        return ()

    @property
    def is_empty(self) -> bool:
        return not self.channels

    @property
    def in_flight(self) -> int:
        return sum(len(messages) for _, messages in self.channels)

    def iter_messages(self) -> Iterator[Tuple[int, int, SyncMessage]]:
        for (src, dest), messages in self.channels:
            for message in messages:
                yield src, dest, message

    def channel_depths(self) -> Dict[ChannelKey, int]:
        """Current queue depth per nonempty channel (observability hook)."""
        return {key: len(messages) for key, messages in self.channels}

    # ------------------------------------------------------------------
    def can_send(self, src: int, dest: int) -> bool:
        if self.capacity is None:
            return True
        return len(self.queue(src, dest)) < self.capacity

    def send(self, src: int, dest: int, message: SyncMessage) -> "MediumState":
        """New state with ``message`` appended to channel ``src -> dest``.

        Raises ``ValueError`` when the channel is at capacity — callers
        must test :meth:`can_send` first (the runtime treats a full
        channel as "the send is not currently enabled", mirroring the
        rendezvous with the Section 5.2 capacity-1 channel process).
        """
        if not self.can_send(src, dest):
            raise ValueError(f"channel {src}->{dest} is at capacity")
        return self._with_queue((src, dest), self.queue(src, dest) + (message,))

    def receivable(self, src: int, dest: int, message: SyncMessage) -> bool:
        queue = self.queue(src, dest)
        if not queue:
            return False
        if self.discipline == "fifo":
            return queue[0] == message
        return message in queue

    def receive(self, src: int, dest: int, message: SyncMessage) -> "MediumState":
        """New state with the matched message removed."""
        queue = self.queue(src, dest)
        if self.discipline == "fifo":
            if not queue or queue[0] != message:
                raise ValueError(
                    f"message {message} is not at the head of {src}->{dest}"
                )
            return self._with_queue((src, dest), queue[1:])
        try:
            index = queue.index(message)
        except ValueError as exc:
            raise ValueError(
                f"message {message} is not in channel {src}->{dest}"
            ) from exc
        return self._with_queue((src, dest), queue[:index] + queue[index + 1 :])

    # ------------------------------------------------------------------
    def _with_queue(
        self, key: ChannelKey, queue: Tuple[SyncMessage, ...]
    ) -> "MediumState":
        entries: Dict[ChannelKey, Tuple[SyncMessage, ...]] = dict(self.channels)
        if queue:
            entries[key] = queue
        else:
            entries.pop(key, None)
        canonical = tuple(sorted(entries.items(), key=lambda item: item[0]))
        return MediumState(canonical, self.capacity, self.discipline)


def make_medium(
    capacity: Optional[int] = None, discipline: str = "fifo"
) -> MediumState:
    """A fresh, empty medium."""
    return MediumState((), capacity, discipline)
