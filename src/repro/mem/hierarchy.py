"""The three-level cache hierarchy of the target multicore.

Structure (Section 4.1 of the paper):

* per-core split write-through L1 I/D caches,
* per-core private L2,
* one shared L3 that maintains **exclusion** with the private L2s (like the
  IBM Power5 / AMD quad-core Opteron): a line lives either in some core's L2
  or in the L3, not both,
* a MOSI directory (shadow tags co-located with the L3) over a point-to-point
  interconnect,
* flat DRAM behind a bandwidth-limited off-chip link.

Two access paths are provided:

``coherent=True``
    Normal requests (non-DMR cores and Reunion vocal cores).  These update
    directory state, invalidate remote sharers on stores, and move lines
    between the L2s and the exclusive L3.

``coherent=False``
    Reunion *mute* requests.  They are best-effort: they may read data from
    the owner's L2 (a 3-hop cache-to-cache transfer) or from the L3/DRAM, but
    they never change the directory, never invalidate anybody, and every line
    they bring into the mute's private hierarchy is marked incoherent so it
    can never be written back.

The class also implements the line-by-line L2 flush used when an MMM-TP pair
leaves DMR mode (Section 3.4.3): each frame of the L2 is inspected at one
line per cycle, coherent dirty lines are written back to the L3, and
incoherent lines are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.common.stats import StatSet
from repro.config.system import SystemConfig
from repro.errors import MemorySystemError
from repro.mem.cache import CacheImage, SetAssociativeCache, lru_line
from repro.mem.directory import Directory, DirectoryEntry, DirectoryImage
from repro.mem.dram import MainMemory
from repro.mem.interconnect import DEFAULT_WINDOW_CYCLES, Interconnect
from repro.mem.lines import CacheLine, LineState

# Enum members read through the class cost an attribute lookup each; the
# access paths below run per simulated access and read these instead.
_SHARED = LineState.SHARED
_OWNED = LineState.OWNED
_MODIFIED = LineState.MODIFIED
_INVALID = LineState.INVALID


@dataclass(slots=True)
class AccessResult:
    """Outcome of one data access through the hierarchy."""

    latency: int
    level: str
    c2c: bool = False
    offchip: bool = False
    invalidations: int = 0


@dataclass(slots=True)
class FlushResult:
    """Outcome of flushing one core's private L2."""

    cycles: int
    lines_inspected: int
    dirty_writebacks: int
    incoherent_dropped: int


class WarmCheckpoint(NamedTuple):
    """A packed copy of a whole hierarchy, taken by
    :meth:`MemoryHierarchy.checkpoint` and put back by
    :meth:`MemoryHierarchy.restore`: every cache, the directory, the
    interconnect's bandwidth window and every counter."""

    l1d: Tuple[CacheImage, ...]
    l1i: Tuple[CacheImage, ...]
    l2: Tuple[CacheImage, ...]
    l3: CacheImage
    directory: DirectoryImage
    #: The interconnect's ``(cycles, offchip bytes, capacity)`` window.
    window: tuple
    interconnect_counts: tuple
    memory_counts: tuple
    counts: tuple


def _reset_counts(counts: dict, items: tuple) -> None:
    counts.clear()
    counts.update(items)


class MemoryHierarchy:
    """The shared memory system used by every core of the simulated chip."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.num_cores = config.num_cores
        self.line_bytes = config.l2.line_bytes
        self.l1d: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1d) for _ in range(self.num_cores)
        ]
        self.l1i: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1i) for _ in range(self.num_cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l2) for _ in range(self.num_cores)
        ]
        self.l3 = SetAssociativeCache(config.l3)
        self.directory = Directory(line_bytes=self.line_bytes)
        self.interconnect = Interconnect(
            config.interconnect, config.memory, line_bytes=self.line_bytes
        )
        self.memory = MainMemory(config.memory)
        self.stats = StatSet()
        # Hot-path binding: the access paths below bump counters directly
        # rather than calling StatSet.add once or more per data access.
        self._counts = self.stats.counters
        # Per-access constants hoisted out of the access paths: the line size
        # is a validated power of two, and the config is immutable.
        self._line_neg_mask = -self.line_bytes
        # The directory's entry map is created once and only ever mutated in
        # place, so the miss paths can consult it directly (addresses reaching
        # them are already line-aligned, making peek()'s alignment a no-op).
        self._dir_entries = self.directory._entries
        self._l1d_hit_latency = config.l1d.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._l3_hit_latency = config.l3.hit_latency
        # Interconnect latencies are pure functions of the immutable config;
        # the miss paths use the precomputed values.
        self._c2c_latency = self.interconnect.cache_to_cache_latency(
            self._l3_hit_latency, self._l2_hit_latency
        )
        self._inv_latency = self.interconnect.invalidation_latency(1)

    # ------------------------------------------------------------------ #
    # Window management (bandwidth accounting)
    # ------------------------------------------------------------------ #

    def begin_window(self, window_cycles: int) -> None:
        """Open a new bandwidth accounting window (one scheduling quantum)."""
        self.interconnect.begin_window(window_cycles)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise MemorySystemError(
                f"core {core_id} outside the configured {self.num_cores}-core chip"
            )

    def _write_back_l3_victim(self, l3_victim: Optional[CacheLine]) -> None:
        """Send a line pushed out of the L3 off chip when it needs a writeback."""
        if l3_victim is not None and l3_victim.needs_writeback:
            self.interconnect.record_offchip_transfer()
            self.memory.writeback_latency(self.interconnect.offchip_contention_factor())
            self._counts["l3.writebacks"] += 1

    def _fill_l2(
        self, core_id: int, line_addr: int, state: LineState, dirty: bool, coherent: bool
    ) -> None:
        """Insert a line into ``core_id``'s L2.

        This is ``SetAssociativeCache.insert`` on the L2, inline, followed
        for a victim by its removal from the core's L1s (inclusive L1/L2),
        its directory eviction and its drop (incoherent) or its insertion
        into the exclusive L3 (coherent), whose own dirty victim is written
        back.  Each component's state and counters evolve exactly as through
        the methods named.  The victim's line object is then reused for the
        new line.
        """
        l2 = self.l2[core_id]
        l2_lines = l2._lines
        l2._touch_counter = stamp = l2._touch_counter + 1
        line = l2_lines.get(line_addr)
        if line is not None:
            line.state = state
            line.dirty = line.dirty or dirty
            line.coherent = coherent
            line.last_touch = stamp
            return
        tag = line_addr >> l2._line_shift
        mask = l2._set_mask
        index = tag & mask if mask is not None else tag % l2._num_sets
        cache_set = l2._sets.get(index)
        if cache_set is None:
            cache_set = l2._sets[index] = {}
        if len(cache_set) >= l2._associativity:
            line = lru_line(cache_set)
            victim_addr = line.line_addr
            del cache_set[victim_addr]
            del l2_lines[victim_addr]
            l2._counts["evictions"] += 1
            l1d = self.l1d[core_id]
            if victim_addr in l1d._lines:
                l1d.invalidate(victim_addr)
            l1i = self.l1i[core_id]
            if victim_addr in l1i._lines:
                l1i.invalidate(victim_addr)
            entry = self._dir_entries.get(victim_addr)
            if entry is not None:
                if entry.owner == core_id:
                    entry.owner = None
                entry.sharers.discard(core_id)
                self.directory._counts["evictions"] += 1
            if not line.coherent:
                self._counts["l2.incoherent_victims_dropped"] += 1
            else:
                victim_state = line.state
                l3_victim = self.l3.insert(
                    victim_addr,
                    victim_state if victim_state is not _INVALID else _SHARED,
                    line.dirty,
                    True,
                )
                self._counts["l2.victims_to_l3"] += 1
                self._write_back_l3_victim(l3_victim)
            line.line_addr = line_addr
            line.state = state
            line.dirty = dirty
            line.coherent = coherent
            line.last_touch = stamp
        else:
            line = CacheLine(line_addr, state, dirty, coherent, stamp)
        cache_set[line_addr] = l2_lines[line_addr] = line
        l2._counts["fills"] += 1

    def _invalidate_remote_copies(self, line_addr: int, cores: set[int]) -> None:
        counts = self._counts
        for other in cores:
            self.l1d[other].invalidate(line_addr)
            self.l1i[other].invalidate(line_addr)
            self.l2[other].invalidate(line_addr)
            counts["remote_invalidations"] += 1

    # ------------------------------------------------------------------ #
    # Coherent access path (normal and vocal cores)
    # ------------------------------------------------------------------ #

    def _remote_holder(self, line_addr: int, requester: int) -> Optional[int]:
        """Find a remote private L2 currently holding the line.

        The directory's shadow tags know both the owner (M/O) and the sharers
        of a line; because the L3 is exclusive with the L2s, a line held only
        by sharers is *not* in the L3 and must be forwarded from one of them
        (a clean cache-to-cache transfer).  The owner is preferred when there
        is one (dirty cache-to-cache transfer).
        """
        entry = self._dir_entries.get(line_addr)
        if entry is None:
            return None
        owner = entry.owner
        if owner is not None and owner != requester and line_addr in self.l2[owner]._lines:
            return owner
        for sharer in sorted(entry.sharers):
            if sharer != requester and line_addr in self.l2[sharer]._lines:
                return sharer
        return None

    def _coherent_miss_fill(self, core_id: int, line_addr: int, is_store: bool):
        """Serve an L2 miss coherently from a remote L2, the L3, or memory.

        Returns ``(latency, level, c2c, offchip, invalidations)``; the public
        :meth:`access` wraps the tuple into an :class:`AccessResult`.
        """
        counts = self._counts
        l3_latency = self._l3_hit_latency
        owner = self._remote_holder(line_addr, core_id)
        invalidations = 0

        if owner is not None:
            # 3-hop dirty cache-to-cache transfer from the owning L2.
            latency = self._c2c_latency
            counts["c2c_transfers"] += 1
            if is_store:
                targets = self.directory.record_exclusive_fetch(line_addr, core_id)
                invalidations = len(targets)
                if invalidations:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
                self._fill_l2(core_id, line_addr, _MODIFIED, dirty=True, coherent=True)
            else:
                self.directory.record_downgrade(line_addr, owner)
                self.directory.record_shared_fetch(line_addr, core_id)
                self._fill_l2(core_id, line_addr, _SHARED, dirty=False, coherent=True)
            self.l1d[core_id].fill_shared(line_addr, True)
            return (latency, "c2c", True, False, invalidations)

        l3_line = self.l3.touch(line_addr)
        if l3_line is not None:
            # Exclusive L3: the line moves from the L3 into the requester's L2.
            latency = l3_latency
            dirty = l3_line.dirty
            self.l3.invalidate(line_addr)
            counts["l3.hits"] += 1
            if is_store:
                targets = self.directory.record_exclusive_fetch(line_addr, core_id)
                invalidations = len(targets)
                if invalidations:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
                self._fill_l2(core_id, line_addr, _MODIFIED, dirty=True, coherent=True)
            else:
                self.directory.record_shared_fetch(line_addr, core_id)
                state = _OWNED if dirty else _SHARED
                self._fill_l2(core_id, line_addr, state, dirty=dirty, coherent=True)
            self.l1d[core_id].fill_shared(line_addr, True)
            return (latency, "l3", False, False, invalidations)

        # Off-chip access.
        counts["l3.misses"] += 1
        self.interconnect.record_offchip_transfer()
        latency = l3_latency + self.memory.access_latency(
            self.interconnect.offchip_contention_factor()
        )
        if is_store:
            targets = self.directory.record_exclusive_fetch(line_addr, core_id)
            invalidations = len(targets)
            if invalidations:
                latency += self._inv_latency
            self._invalidate_remote_copies(line_addr, targets)
            self._fill_l2(core_id, line_addr, _MODIFIED, dirty=True, coherent=True)
        else:
            self.directory.record_shared_fetch(line_addr, core_id)
            self._fill_l2(core_id, line_addr, _SHARED, dirty=False, coherent=True)
        self.l1d[core_id].fill_shared(line_addr, True)
        return (latency, "memory", False, True, invalidations)

    def _coherent_load(self, core_id: int, address: int):
        # The L1/L2 hit checks inline SetAssociativeCache.touch (flat-map get
        # plus LRU stamp plus hit/miss counters) -- this is the single most
        # frequent operation in the whole simulator, and the method call per
        # level is measurable.  Statistics evolve exactly as through touch().
        line_addr = address & self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        line = l1._lines.get(line_addr)
        if line is not None:
            l1._touch_counter = counter = l1._touch_counter + 1
            line.last_touch = counter
            l1._counts["hits"] += 1
            counts["l1d.hits"] += 1
            return (self._l1d_hit_latency, "l1", False, False, 0)
        l1._counts["misses"] += 1
        counts["l1d.misses"] += 1
        l2 = self.l2[core_id]
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            l2._counts["hits"] += 1
            l1.fill_shared(line_addr, l2_line.coherent)
            counts["l2.hits"] += 1
            return (self._l2_hit_latency, "l2", False, False, 0)
        l2._counts["misses"] += 1
        counts["l2.misses"] += 1
        return self._coherent_miss_fill(core_id, line_addr, is_store=False)

    def _coherent_store(self, core_id: int, address: int):
        line_addr = address & self._line_neg_mask
        counts = self._counts
        # The write-through L1 forwards every store to the L2; the L1 copy (if
        # any) is simply kept up to date at no extra cost.  The L2 hit check
        # inlines touch() like the load path above.
        l2 = self.l2[core_id]
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            l2._counts["hits"] += 1
            counts["l2.hits"] += 1
            latency = self._l2_hit_latency
            invalidations = 0
            if l2_line.state in (_SHARED, _OWNED):
                targets = self.directory.record_exclusive_fetch(line_addr, core_id)
                targets.discard(core_id)
                invalidations = len(targets)
                if invalidations:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
            l2_line.state = _MODIFIED
            l2_line.dirty = True
            dir_entry = self._dir_entries.get(line_addr)
            if (dir_entry.owner if dir_entry is not None else None) != core_id:
                self.directory.record_exclusive_fetch(line_addr, core_id)
            return (latency, "l2", False, False, invalidations)
        l2._counts["misses"] += 1
        counts["l2.misses"] += 1
        return self._coherent_miss_fill(core_id, line_addr, is_store=True)

    # ------------------------------------------------------------------ #
    # Incoherent (mute) access path
    # ------------------------------------------------------------------ #

    def _mute_access(self, core_id: int, address: int, is_store: bool):
        # L1/L2 hit checks inline touch(), as in the coherent paths.
        line_addr = address & self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        l2 = self.l2[core_id]
        line = l1._lines.get(line_addr)
        if line is not None:
            l1._touch_counter = counter = l1._touch_counter + 1
            line.last_touch = counter
            l1._counts["hits"] += 1
            counts["mute.l1d.hits"] += 1
            if is_store:
                l2_line = l2._lines.get(line_addr)
                if l2_line is not None:
                    l2_line.dirty = True
                    l2_line.coherent = False
            return (self._l1d_hit_latency, "l1", False, False, 0)
        l1._counts["misses"] += 1
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            l2._counts["hits"] += 1
            counts["mute.l2.hits"] += 1
            if is_store:
                l2_line.dirty = True
                l2_line.coherent = False
            return (self._l2_hit_latency, "l2", False, False, 0)
        l2._counts["misses"] += 1

        # Best-effort fill without changing global state.
        counts["mute.l2.misses"] += 1
        l3_latency = self._l3_hit_latency
        holder = self._remote_holder(line_addr, core_id)
        if holder is not None:
            latency = self._c2c_latency
            level = "c2c"
            c2c = True
            offchip = False
            counts["c2c_transfers"] += 1
            counts["mute.c2c_transfers"] += 1
        elif self.l3.lookup(line_addr) is not None:
            latency = l3_latency
            level = "l3"
            c2c = False
            offchip = False
            counts["mute.l3_hits"] += 1
        else:
            self.interconnect.record_offchip_transfer()
            latency = l3_latency + self.memory.access_latency(
                self.interconnect.offchip_contention_factor()
            )
            level = "memory"
            c2c = False
            offchip = True
            counts["mute.memory_accesses"] += 1
        self._fill_l2(
            core_id,
            line_addr,
            _MODIFIED if is_store else _SHARED,
            dirty=is_store,
            coherent=False,
        )
        l1.fill_shared(line_addr, False)
        return (latency, level, c2c, offchip, 0)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def access_raw(self, core_id: int, address: int, is_store: bool, coherent: bool = True):
        """Perform one data access without building an :class:`AccessResult`.

        Returns ``(latency, level, c2c, offchip, invalidations)``.  This is
        the form the core timing model's hot loop consumes; behaviour and
        statistics are identical to :meth:`access`.
        """
        self._check_core(core_id)
        if address < 0:
            raise MemorySystemError(f"negative physical address {address}")
        if coherent:
            if is_store:
                return self._coherent_store(core_id, address)
            return self._coherent_load(core_id, address)
        return self._mute_access(core_id, address, is_store)

    def access(
        self, core_id: int, address: int, is_store: bool, coherent: bool = True
    ) -> AccessResult:
        """Perform one data access and return its latency and classification."""
        latency, level, c2c, offchip, invalidations = self.access_raw(
            core_id, address, is_store, coherent
        )
        return AccessResult(
            latency=latency,
            level=level,
            c2c=c2c,
            offchip=offchip,
            invalidations=invalidations,
        )

    def warm(self, core_id: int, addresses, secondary_core: Optional[int] = None) -> int:
        """Functionally warm caches by touching ``addresses`` with loads.

        Each address is loaded coherently on ``core_id`` and, when a
        ``secondary_core`` is given (a DMR mute), incoherently on that core.
        State and statistics end exactly as through one ``_coherent_load``
        (then one ``_mute_access``) per address.  Returns the number of
        addresses touched.
        """
        self._check_core(core_id)
        if secondary_core is not None:
            self._check_core(secondary_core)
        # A warm walks a working set larger than the L1, so primary loads
        # almost never hit it: they hit the L2, or come from the L3 or memory
        # with no remote L2 holding the line.  Those paths run inline below
        # (up to the L2 fill, one call), with the same effects, in the same
        # order per component, as _coherent_load, _coherent_miss_fill and
        # the cache, directory and interconnect methods they call.  An L1
        # hit, a remote holder (a cache-to-cache transfer) and the mute load
        # take the out-of-line paths.
        neg_mask = self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        l1_lines = l1._lines
        l1_sets = l1._sets
        l1_counts = l1._counts
        l1_ways = l1._associativity
        l1_shift = l1._line_shift
        l1_set_mask = l1._set_mask
        l2 = self.l2[core_id]
        l2_lines = l2._lines
        l2_counts = l2._counts
        l3 = self.l3
        l3_lines = l3._lines
        l3_sets = l3._sets
        l3_counts = l3._counts
        l3_shift = l3._line_shift
        l3_set_mask = l3._set_mask
        dir_entries = self._dir_entries
        dir_counts = self.directory._counts
        interconnect = self.interconnect
        ic_counts = interconnect._counts
        line_bytes = interconnect.line_bytes
        memory_access = self.memory.access_latency
        contention = interconnect.offchip_contention_factor
        coherent_load = self._coherent_load
        remote_holder = self._remote_holder
        miss_fill = self._coherent_miss_fill
        fill_l2 = self._fill_l2
        mute_access = self._mute_access
        mute = secondary_core is not None
        shared = _SHARED
        owned = _OWNED
        count = 0
        for address in addresses:
            count += 1
            line_addr = address & neg_mask
            if line_addr in l1_lines:
                coherent_load(core_id, address)
                if mute:
                    mute_access(secondary_core, address, False)
                continue
            l1_counts["misses"] += 1
            counts["l1d.misses"] += 1
            line = l2_lines.get(line_addr)
            if line is not None:
                l2._touch_counter = stamp = l2._touch_counter + 1
                line.last_touch = stamp
                l2_counts["hits"] += 1
                counts["l2.hits"] += 1
                coherent = line.coherent
            else:
                l2_counts["misses"] += 1
                counts["l2.misses"] += 1
                entry = dir_entries.get(line_addr)
                if (
                    entry is not None
                    and (entry.owner is not None or entry.sharers)
                    and remote_holder(line_addr, core_id) is not None
                ):
                    miss_fill(core_id, line_addr, False)
                    if mute:
                        mute_access(secondary_core, address, False)
                    continue
                # The exclusive L3 gives the line up (a touch, then an
                # invalidate), or memory supplies it.
                line = l3_lines.pop(line_addr, None)
                if line is not None:
                    l3._touch_counter += 1
                    l3_counts["hits"] += 1
                    tag = line_addr >> l3_shift
                    del l3_sets[
                        tag & l3_set_mask if l3_set_mask is not None else tag % l3._num_sets
                    ][line_addr]
                    l3_counts["invalidations"] += 1
                    counts["l3.hits"] += 1
                    dirty = line.dirty
                    state = owned if dirty else shared
                else:
                    l3_counts["misses"] += 1
                    counts["l3.misses"] += 1
                    interconnect._window_offchip_bytes += line_bytes
                    ic_counts["offchip_bytes"] += line_bytes
                    memory_access(contention())
                    dirty = False
                    state = shared
                if entry is None:
                    entry = dir_entries[line_addr] = DirectoryEntry()
                if entry.owner != core_id:
                    entry.sharers.add(core_id)
                dir_counts["shared_fetches"] += 1
                fill_l2(core_id, line_addr, state, dirty, True)
                coherent = True
            # Fill the L1, which does not hold the line either, as
            # l1.fill_shared would (reusing a victim's line object).
            l1._touch_counter = stamp = l1._touch_counter + 1
            tag = line_addr >> l1_shift
            index = tag & l1_set_mask if l1_set_mask is not None else tag % l1._num_sets
            cache_set = l1_sets.get(index)
            if cache_set is None:
                cache_set = l1_sets[index] = {}
            if len(cache_set) >= l1_ways:
                if l1_ways == 2:
                    first, second = cache_set.values()
                    line = second if second.last_touch < first.last_touch else first
                else:
                    line = lru_line(cache_set)
                del cache_set[line.line_addr]
                del l1_lines[line.line_addr]
                l1_counts["evictions"] += 1
                line.line_addr = line_addr
                line.state = shared
                line.dirty = False
                line.coherent = coherent
                line.last_touch = stamp
            else:
                line = CacheLine(line_addr, shared, False, coherent, stamp)
            cache_set[line_addr] = l1_lines[line_addr] = line
            l1_counts["fills"] += 1
            if mute:
                mute_access(secondary_core, address, False)
        return count

    def load(self, core_id: int, address: int, coherent: bool = True) -> AccessResult:
        """Convenience wrapper for a load access."""
        return self.access(core_id, address, is_store=False, coherent=coherent)

    def store(self, core_id: int, address: int, coherent: bool = True) -> AccessResult:
        """Convenience wrapper for a store access."""
        return self.access(core_id, address, is_store=True, coherent=coherent)

    def flush_l2(self, core_id: int) -> FlushResult:
        """Flush one core's private L2 (and L1s) line by line.

        Used when an MMM-TP pair leaves DMR mode: the mute core's cache can
        contain a mixture of incoherent lines (from Reunion's best-effort
        path) and coherent lines (VCPU state moved during mode switches), so
        every frame must be inspected.  The paper pessimistically assumes one
        line inspected or written back per cycle, which is what makes Leave
        DMR roughly 8 k cycles more expensive than Enter DMR on the 512 KB L2.
        """
        self._check_core(core_id)
        l2 = self.l2[core_id]
        resident = l2.resident_lines()
        dirty_writebacks = 0
        incoherent_dropped = 0
        for line in resident:
            if line.needs_writeback:
                dirty_writebacks += 1
                self._write_back_l3_victim(
                    self.l3.insert(
                        line.line_addr, state=LineState.OWNED, dirty=True, coherent=True
                    )
                )
            elif not line.coherent:
                incoherent_dropped += 1
            self.directory.record_eviction(line.line_addr, core_id)
        l2.clear()
        self.l1d[core_id].clear()
        self.l1i[core_id].clear()
        # One cycle per frame inspected plus one per line written back.
        cycles = l2.capacity_lines + dirty_writebacks
        self.stats.add("l2.flushes")
        self.stats.add("l2.flush_cycles", cycles)
        return FlushResult(
            cycles=cycles,
            lines_inspected=l2.capacity_lines,
            dirty_writebacks=dirty_writebacks,
            incoherent_dropped=incoherent_dropped,
        )

    def invalidate_incoherent_lines(self, core_id: int) -> int:
        """Drop every incoherent line from a core's private caches.

        Cheaper than a full flush; used when a mute core is re-purposed
        without having observed any coherent state.
        """
        self._check_core(core_id)
        dropped = 0
        for cache in (self.l1d[core_id], self.l1i[core_id], self.l2[core_id]):
            for line in cache.resident_lines():
                if not line.coherent:
                    cache.invalidate(line.line_addr)
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #

    def is_pristine(self) -> bool:
        """True while nothing has touched the hierarchy since construction:
        no access, flush or line, no counter, the initial bandwidth window."""
        interconnect = self.interconnect
        return (
            not self._counts
            and not self._dir_entries
            and not self.directory._counts
            and not self.memory._counts
            and not interconnect._counts
            and interconnect._window_offchip_bytes == 0
            and interconnect._window_cycles == DEFAULT_WINDOW_CYCLES
            and all(
                not cache._sets and not cache._counts and cache._touch_counter == 0
                for cache in (*self.l1d, *self.l1i, *self.l2, self.l3)
            )
        )

    def checkpoint(self) -> WarmCheckpoint:
        """A packed copy of the whole hierarchy's state."""
        interconnect = self.interconnect
        return WarmCheckpoint(
            l1d=tuple(cache.snapshot() for cache in self.l1d),
            l1i=tuple(cache.snapshot() for cache in self.l1i),
            l2=tuple(cache.snapshot() for cache in self.l2),
            l3=self.l3.snapshot(),
            directory=self.directory.snapshot(),
            window=(
                interconnect._window_cycles,
                interconnect._window_offchip_bytes,
                interconnect._window_capacity,
            ),
            interconnect_counts=tuple(interconnect._counts.items()),
            memory_counts=tuple(self.memory._counts.items()),
            counts=tuple(self._counts.items()),
        )

    def restore(self, checkpoint: WarmCheckpoint) -> None:
        """Put back the state of a :meth:`checkpoint` taken on a hierarchy of
        the same configuration.  Every map and counter dict is refilled in
        place, so references bound to them stay valid."""
        for caches, images in (
            (self.l1d, checkpoint.l1d),
            (self.l1i, checkpoint.l1i),
            (self.l2, checkpoint.l2),
        ):
            for cache, image in zip(caches, images):
                cache.restore(image)
        self.l3.restore(checkpoint.l3)
        self.directory.restore(checkpoint.directory)
        interconnect = self.interconnect
        (
            interconnect._window_cycles,
            interconnect._window_offchip_bytes,
            interconnect._window_capacity,
        ) = checkpoint.window
        _reset_counts(interconnect._counts, checkpoint.interconnect_counts)
        _reset_counts(self.memory._counts, checkpoint.memory_counts)
        _reset_counts(self._counts, checkpoint.counts)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #

    def l2_for(self, core_id: int) -> SetAssociativeCache:
        """The private L2 of ``core_id``."""
        self._check_core(core_id)
        return self.l2[core_id]

    def l1d_for(self, core_id: int) -> SetAssociativeCache:
        """The private L1 data cache of ``core_id``."""
        self._check_core(core_id)
        return self.l1d[core_id]

    def c2c_transfer_count(self) -> int:
        """Total dirty cache-to-cache transfers observed so far."""
        return int(self.stats.get("c2c_transfers"))

    def merged_stats(self) -> StatSet:
        """Hierarchy-wide statistics including interconnect and DRAM counters."""
        merged = StatSet(self.stats.as_dict())
        merged.merge(self.interconnect.stats)
        merged.merge(self.memory.stats)
        return merged
