# detlint: disable-file=DET004 -- the _stats/_seq bookkeeping is keyed by
# id(entry) on purpose: FlowEntry is frozen and reused, the maps live and die
# with this in-process table, and nothing keyed by id() ever reaches a
# serialized structure (exports go through sorted match fields, never ids).
"""Flow table: matches, actions, entries, priority lookup.

The match fields are the ones the supercharged controller needs
(destination MAC, in-port, EtherType); wildcarding any field is done by
leaving it ``None``.  Actions model OpenFlow ``set_field(eth_dst)``,
``set_field(eth_src)``, ``output`` and ``CONTROLLER`` output.

The table is organised for throughput: entries with a concrete
``eth_dst`` (the controller's per-next-hop rewrite rules — the vast
majority at scale) live in a hash index keyed on the destination MAC,
wildcard-destination entries live in a small ordered fallback list, and an
exact ``(match, priority)`` index makes ``install``/``modify``/``find``
O(1) with no re-sorting.  Priority order with install-order FIFO
tie-breaking — including the legacy "replace moves the entry to the back
of its priority class, modify keeps its position" behavior — is preserved
exactly (locked by tests/test_dataplane_semantics.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.packets import EtherType, EthernetFrame


class FlowTableError(RuntimeError):
    """Raised for invalid flow-table operations (overflow, bad entries)."""


#: Pseudo port number meaning "send to the controller" (OFPP_CONTROLLER).
CONTROLLER_PORT = 0xFFFFFFFD
#: Pseudo port number meaning "flood on all ports except ingress" (OFPP_FLOOD).
FLOOD_PORT = 0xFFFFFFFB


@dataclass(frozen=True)
class FlowMatch:
    """Match on in-port, EtherType and/or destination MAC (``None`` = wildcard)."""

    in_port: Optional[int] = None
    eth_type: Optional[EtherType] = None
    eth_dst: Optional[MacAddress] = None
    eth_src: Optional[MacAddress] = None

    def matches(self, frame: EthernetFrame, in_port: int) -> bool:
        """Whether the frame arriving on ``in_port`` satisfies the match."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_type is not None and self.eth_type != frame.ethertype:
            return False
        if self.eth_dst is not None and self.eth_dst != frame.dst_mac:
            return False
        if self.eth_src is not None and self.eth_src != frame.src_mac:
            return False
        return True

    @property
    def specificity(self) -> int:
        """Number of non-wildcarded fields (diagnostics only)."""
        return sum(
            1
            for value in (self.in_port, self.eth_type, self.eth_dst, self.eth_src)
            if value is not None
        )


@dataclass(frozen=True)
class Actions:
    """Action list applied to matching frames, in OpenFlow apply-actions order:
    optional MAC rewrites, then output."""

    set_eth_dst: Optional[MacAddress] = None
    set_eth_src: Optional[MacAddress] = None
    output_port: Optional[int] = None

    @property
    def is_drop(self) -> bool:
        """No output action means the frame is dropped."""
        return self.output_port is None

    @property
    def to_controller(self) -> bool:
        """Whether the frame is punted to the controller."""
        return self.output_port == CONTROLLER_PORT

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        """Return the frame after the rewrite actions (output is the caller's job)."""
        result = frame
        if self.set_eth_dst is not None:
            result = result.with_dst_mac(self.set_eth_dst)
        if self.set_eth_src is not None:
            result = result.with_src_mac(self.set_eth_src)
        return result


@dataclass(frozen=True)
class FlowEntry:
    """One flow-table entry."""

    match: FlowMatch
    actions: Actions
    priority: int = 100
    cookie: int = 0
    installed_at: float = 0.0

    def with_actions(self, actions: Actions) -> "FlowEntry":
        """Copy of the entry with different actions (a MODIFY flow-mod)."""
        return replace(self, actions=actions)


@dataclass
class FlowStats:
    """Per-entry counters."""

    packets: int = 0
    bytes: int = 0


class FlowTable:
    """Indexed flow table with per-entry counters.

    ``capacity`` models the limited TCAM of a hardware switch; exceeding it
    raises :class:`FlowTableError`, which the FIB-cache extension relies on.

    Internally the table keeps three indexes, all maintained incrementally
    (no global re-sort on any operation):

    * ``(match, priority)`` → entry, for O(1) ``install``/``modify``/``find``;
    * ``eth_dst`` → priority-ordered bucket, so a lookup only scans the
      handful of rules for that destination MAC (the controller's
      per-next-hop rewrite rules are all exact-``eth_dst``);
    * a small priority-ordered fallback list for wildcard-``eth_dst``
      entries (table-miss punts, flood rules).

    Priority ties break FIFO by install order; replacing an entry re-issues
    its position (back of its priority class) while ``modify`` keeps it,
    matching the original sorted-list behavior exactly.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise FlowTableError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: (match, priority) -> entry.
        self._index: Dict[Tuple[FlowMatch, int], FlowEntry] = {}
        #: match -> {priority -> entry}, for single-pass wildcard remove().
        self._by_match: Dict[FlowMatch, Dict[int, FlowEntry]] = {}
        #: eth_dst -> entries with that exact destination, ordered by
        #: (-priority, install sequence).
        self._dst_buckets: Dict[MacAddress, List[FlowEntry]] = {}
        #: Wildcard-eth_dst entries, same ordering.
        self._wildcard: List[FlowEntry] = []
        #: id(entry) -> install sequence (FIFO tie-break within a priority).
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        self._stats: Dict[int, FlowStats] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Add an entry; an entry with an identical match+priority is replaced."""
        key = (entry.match, entry.priority)
        existing = self._index.get(key)
        if existing is not None:
            self._detach(existing)
        elif len(self._index) >= self.capacity:
            raise FlowTableError(
                f"flow table full ({self.capacity} entries), cannot install {entry}"
            )
        self._attach(entry)
        self._stats[id(entry)] = FlowStats()

    def modify(self, match: FlowMatch, priority: int, actions: Actions) -> bool:
        """Replace the actions of the entry with the given match+priority.

        Returns whether an entry was found and modified.  The entry keeps
        its position in the priority order (unlike a re-install).
        """
        existing = self._index.get((match, priority))
        if existing is None:
            return False
        updated = existing.with_actions(actions)
        self._replace_in_place(existing, updated)
        return True

    def apply_batch(self, flow_mods: Iterable, now: float = 0.0) -> int:
        """Apply a sequence of flow-mods in one call (an OpenFlow bundle).

        ``flow_mods`` is any iterable of
        :class:`~repro.openflow.messages.FlowMod`-shaped objects
        (``command``/``match``/``actions``/``priority``/``cookie``); the
        commands follow switch semantics: ``add`` installs (replacing an
        identical match+priority), ``modify`` updates in place or falls
        back to an add, ``delete`` removes.  Entries created by the batch
        get ``installed_at=now``.  Returns the number of flow-mods applied.
        A capacity overflow raises mid-batch; earlier mods stay applied
        (exactly as if the mods had been streamed one at a time).
        """
        applied = 0
        for mod in flow_mods:
            command = getattr(mod.command, "value", mod.command)
            if command == "add":
                self.install(
                    FlowEntry(
                        match=mod.match,
                        actions=mod.actions or Actions(),
                        priority=mod.priority,
                        cookie=mod.cookie,
                        installed_at=now,
                    )
                )
            elif command == "modify":
                if not self.modify(mod.match, mod.priority, mod.actions or Actions()):
                    self.install(
                        FlowEntry(
                            match=mod.match,
                            actions=mod.actions or Actions(),
                            priority=mod.priority,
                            cookie=mod.cookie,
                            installed_at=now,
                        )
                    )
            elif command == "delete":
                self.remove(mod.match, mod.priority)
            else:
                raise FlowTableError(f"unknown flow-mod command: {mod.command!r}")
            applied += 1
        return applied

    def remove(self, match: FlowMatch, priority: Optional[int] = None) -> int:
        """Remove entries matching the given match (and priority, if given).

        Returns the number of removed entries.  Single pass: only the
        entries registered under ``match`` are visited.
        """
        per_priority = self._by_match.get(match)
        if not per_priority:
            return 0
        if priority is None:
            targets = list(per_priority.values())
        else:
            entry = per_priority.get(priority)
            targets = [entry] if entry is not None else []
        for entry in targets:
            self._detach(entry)
        return len(targets)

    def clear(self) -> None:
        """Remove every entry."""
        self._index.clear()
        self._by_match.clear()
        self._dst_buckets.clear()
        self._wildcard.clear()
        self._seq.clear()
        self._stats.clear()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def match(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        """Highest-priority matching entry (FIFO within a priority), with
        no side effect: the first entry of :meth:`entries` that matches,
        found through the ``eth_dst`` index instead of a scan."""
        seq = self._seq
        best = None
        bucket = self._dst_buckets.get(frame.dst_mac)
        if bucket is not None:
            for entry in bucket:
                if entry.match.matches(frame, in_port):
                    best = entry
                    break
        for entry in self._wildcard:
            if best is not None and (
                entry.priority < best.priority
                or (
                    entry.priority == best.priority
                    and seq[id(entry)] > seq[id(best)]
                )
            ):
                break  # the bucket candidate already outranks the rest
            if entry.match.matches(frame, in_port):
                best = entry
                break
        return best

    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        """:meth:`match`, counting the frame against the matched entry."""
        best = self.match(frame, in_port)
        if best is not None:
            stats = self._stats[id(best)]
            stats.packets += 1
            stats.bytes += frame.size_bytes
        return best

    def stats(self, entry: FlowEntry) -> FlowStats:
        """Counters of an installed entry."""
        if id(entry) not in self._stats:
            raise FlowTableError("entry is not installed in this table")
        return self._stats[id(entry)]

    def entries(self) -> Tuple[FlowEntry, ...]:
        """All entries in priority order (built on demand; introspection only)."""
        seq = self._seq
        ordered = sorted(
            self._index.values(), key=lambda e: (-e.priority, seq[id(e)])
        )
        return tuple(ordered)

    def find(self, match: FlowMatch, priority: int) -> Optional[FlowEntry]:
        """The installed entry with exactly this match and priority, if any."""
        return self._index.get((match, priority))

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _bucket_of(self, entry: FlowEntry) -> List[FlowEntry]:
        eth_dst = entry.match.eth_dst
        if eth_dst is None:
            return self._wildcard
        bucket = self._dst_buckets.get(eth_dst)
        if bucket is None:
            bucket = self._dst_buckets[eth_dst] = []
        return bucket

    def _attach(self, entry: FlowEntry) -> None:
        """Register a fresh entry (new sequence number: back of its class)."""
        self._index[(entry.match, entry.priority)] = entry
        self._by_match.setdefault(entry.match, {})[entry.priority] = entry
        self._seq[id(entry)] = self._next_seq
        self._next_seq += 1
        bucket = self._bucket_of(entry)
        # A fresh entry has the largest sequence, so its slot is right
        # before the first lower-priority entry (binary search on priority;
        # no bisect(key=...) — that needs py3.10+).
        lo, hi = 0, len(bucket)
        p = entry.priority
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid].priority >= p:
                lo = mid + 1
            else:
                hi = mid
        bucket.insert(lo, entry)

    def _detach(self, entry: FlowEntry) -> None:
        """Unregister an entry from every index."""
        del self._index[(entry.match, entry.priority)]
        per_priority = self._by_match[entry.match]
        del per_priority[entry.priority]
        if not per_priority:
            del self._by_match[entry.match]
        eth_dst = entry.match.eth_dst
        if eth_dst is None:
            self._wildcard.remove(entry)
        else:
            bucket = self._dst_buckets[eth_dst]
            bucket.remove(entry)
            if not bucket:
                del self._dst_buckets[eth_dst]
        del self._seq[id(entry)]
        self._stats.pop(id(entry), None)

    def _replace_in_place(self, existing: FlowEntry, updated: FlowEntry) -> None:
        """Swap an entry for its modified copy, keeping sequence and stats."""
        self._index[(existing.match, existing.priority)] = updated
        self._by_match[existing.match][existing.priority] = updated
        bucket = self._bucket_of(existing)
        bucket[bucket.index(existing)] = updated
        self._seq[id(updated)] = self._seq.pop(id(existing))
        self._stats[id(updated)] = self._stats.pop(id(existing))
