"""Functional warming: the fused ``warm`` kernel and warm-state checkpoints.

Two contracts, both checked on the full hierarchy state (every cache's line
and set maps in order, LRU stamps and counters; the directory; the
interconnect window; every counter dict in insertion order):

* ``MemoryHierarchy.warm`` equals the per-address reference below -- one
  ``_coherent_load`` (then one ``_mute_access``) per address, on a
  hierarchy whose L2 fills go through the caches' and directory's own
  methods -- on seeded random cases with mute secondaries, remote owners,
  dirty victims and non-empty start states (built by stores, mute stores
  and flushes, which the same comparison covers);
* a checkpoint restored by ``Simulator._functional_warm`` equals replayed
  warming for the cells of every registered spec, its key tells apart any
  two warms that differ in a core or an address, and a hierarchy that is
  not pristine never goes through the checkpoint memo.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.config.presets import small_system_config
from repro.errors import MemorySystemError
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.lines import LineState
from repro.sim import simulator as simulator_module
from repro.sim.jobs import execute_job, figure5_machine
from repro.sim.settings import ExperimentSettings
from repro.sim.simulator import Simulator
from repro.sim.specs import EXPERIMENTS

QUICK = ExperimentSettings.quick().with_workloads(("apache",))


def reference_fill_l2(hierarchy, core_id, line_addr, state, dirty, coherent) -> None:
    """The executable reference of ``MemoryHierarchy._fill_l2``, through the
    caches' and the directory's own methods: the L2's insert, then for a
    victim its L1 invalidations, its directory eviction and its drop or its
    move into the L3, whose own dirty victim is written back."""
    victim = hierarchy.l2[core_id].insert(line_addr, state, dirty, coherent)
    if victim is None:
        return
    hierarchy.l1d[core_id].invalidate(victim.line_addr)
    hierarchy.l1i[core_id].invalidate(victim.line_addr)
    hierarchy.directory.record_eviction(victim.line_addr, core_id)
    if not victim.coherent:
        hierarchy.stats.add("l2.incoherent_victims_dropped")
        return
    victim_state = victim.state if victim.state is not LineState.INVALID else LineState.SHARED
    l3_victim = hierarchy.l3.insert(victim.line_addr, victim_state, victim.dirty, True)
    hierarchy.stats.add("l2.victims_to_l3")
    if l3_victim is not None and l3_victim.needs_writeback:
        hierarchy.interconnect.record_offchip_transfer()
        hierarchy.memory.writeback_latency(hierarchy.interconnect.offchip_contention_factor())
        hierarchy.stats.add("l3.writebacks")


def reference_hierarchy(config) -> MemoryHierarchy:
    """A hierarchy whose every L2 fill takes :func:`reference_fill_l2`."""
    hierarchy = MemoryHierarchy(config)
    hierarchy._fill_l2 = functools.partial(reference_fill_l2, hierarchy)
    return hierarchy


def reference_warm(hierarchy, core_id, addresses, secondary_core=None) -> int:
    """The executable reference of ``MemoryHierarchy.warm``."""
    hierarchy._check_core(core_id)
    if secondary_core is not None:
        hierarchy._check_core(secondary_core)
    count = 0
    for address in addresses:
        hierarchy._coherent_load(core_id, address)
        if secondary_core is not None:
            hierarchy._mute_access(secondary_core, address, False)
        count += 1
    return count


def cache_state(cache) -> tuple:
    sets = [
        (
            index,
            [
                (addr, line.line_addr, line.state, line.dirty, line.coherent, line.last_touch)
                for addr, line in cache_set.items()
            ],
        )
        for index, cache_set in cache._sets.items()
    ]
    # The flat map holds the very objects of the set maps, in its own order.
    shared = sum(map(len, cache._sets.values())) == len(cache._lines) and all(
        cache._lines.get(addr) is line
        for cache_set in cache._sets.values()
        for addr, line in cache_set.items()
    )
    return (sets, list(cache._lines), shared, cache._touch_counter, list(cache._counts.items()))


def hierarchy_state(hierarchy) -> tuple:
    """Everything a run can observe of a hierarchy, order included."""
    interconnect = hierarchy.interconnect
    return (
        [cache_state(cache) for cache in (*hierarchy.l1d, *hierarchy.l1i, *hierarchy.l2)],
        cache_state(hierarchy.l3),
        [
            (line, entry.owner, sorted(entry.sharers))
            for line, entry in hierarchy.directory._entries.items()
        ],
        list(hierarchy.directory._counts.items()),
        (
            interconnect._window_cycles,
            interconnect._window_offchip_bytes,
            interconnect._window_capacity,
        ),
        list(interconnect._counts.items()),
        list(hierarchy.memory._counts.items()),
        list(hierarchy._counts.items()),
    )


# ---------------------------------------------------------------------- #
# The fused kernel against the per-address reference
# ---------------------------------------------------------------------- #


def _odd_geometry_config():
    """Set counts that are not powers of two (the modulo set-index path)."""
    config = small_system_config()
    return replace(
        config,
        l2=replace(config.l2, size_bytes=12 * 1024),
        l3=replace(config.l3, size_bytes=96 * 1024),
    ).validate()


def _random_case(seed: int):
    """A start-state prelude and a list of warm calls, drawn from ``seed``."""
    rng = random.Random(seed)
    config = _odd_geometry_config() if seed % 4 == 3 else small_system_config()
    cores = config.num_cores
    # More lines than the L2s and the L3 hold together, so every level
    # evicts; unaligned offsets exercise line alignment.
    pool = [0x10_0000 + 64 * index for index in range(rng.choice((1500, 3000, 4500)))]
    # Every sixth case warms a pristine hierarchy.
    steps = 0 if seed % 6 == 0 else rng.randrange(200, 2500)
    prelude = []
    if steps and rng.random() < 0.5:
        # A short window makes the off-chip link contended.
        prelude.append(("window", rng.choice((40, 400))))
    for _ in range(steps):
        prelude.append(
            (
                rng.choice(("load", "load", "store", "mute-load", "mute-store")),
                rng.randrange(cores),
                rng.choice(pool) + rng.randrange(64),
            )
        )
        if rng.random() < 0.002:
            prelude.append(("flush", rng.randrange(cores)))
    calls = []
    for _ in range(rng.randrange(1, 5)):
        primary = rng.randrange(cores)
        secondary = None
        if rng.random() < 0.5:
            secondary = rng.choice([core for core in range(cores) if core != primary])
        start = rng.randrange(len(pool))
        addresses = [
            address + rng.randrange(64)
            for address in pool[start : start + rng.randrange(200, 1500)]
        ]
        # Repeats (some back to back, so they hit the L1) and a shuffle.
        addresses += rng.sample(addresses, len(addresses) // 4)
        rng.shuffle(addresses)
        for position in sorted(rng.sample(range(len(addresses)), 8), reverse=True):
            addresses.insert(position, addresses[position])
        calls.append((primary, tuple(addresses), secondary))
    return config, prelude, calls


def _apply_prelude(hierarchy, prelude) -> None:
    for step in prelude:
        kind = step[0]
        if kind == "window":
            hierarchy.begin_window(step[1])
        elif kind == "flush":
            hierarchy.flush_l2(step[1])
        else:
            _, core, address = step
            hierarchy.access_raw(core, address, kind.endswith("store"), not kind.startswith("mute"))


WARM_COUNTERS = (
    "l1d.hits",
    "l2.hits",
    "l3.hits",
    "l3.misses",
    "c2c_transfers",
    "mute.c2c_transfers",
    "l3.writebacks",
    "l2.victims_to_l3",
    "l2.incoherent_victims_dropped",
)


@functools.lru_cache(maxsize=None)
def _warm_deltas(seed: int) -> dict:
    """Run one random case both ways; assert equal; return counter deltas."""
    config, prelude, calls = _random_case(seed)
    fused = MemoryHierarchy(config)
    reference = reference_hierarchy(config)
    _apply_prelude(fused, prelude)
    _apply_prelude(reference, prelude)
    assert hierarchy_state(fused) == hierarchy_state(reference)
    before = {name: fused.stats.get(name) for name in WARM_COUNTERS}
    contended = fused.memory.stats.get("contended_accesses")
    for primary, addresses, secondary in calls:
        assert fused.warm(primary, addresses, secondary_core=secondary) == len(addresses)
        assert reference_warm(reference, primary, addresses, secondary) == len(addresses)
        assert hierarchy_state(fused) == hierarchy_state(reference)
    deltas = {name: fused.stats.get(name) - before[name] for name in WARM_COUNTERS}
    deltas["mute"] = sum(secondary is not None for _, _, secondary in calls)
    deltas["contended"] = fused.memory.stats.get("contended_accesses") - contended
    deltas["pristine"] = not prelude
    return deltas


RANDOM_SEEDS = range(24)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_fused_warm_matches_the_reference(seed):
    _warm_deltas(seed)


def test_random_cases_cover_every_warm_path():
    totals: dict = {}
    for seed in RANDOM_SEEDS:
        # Cached: the parametrized test above has usually run this case.
        for name, value in _warm_deltas(seed).items():
            totals[name] = totals.get(name, 0) + value
    # Every path of the kernel ran during warming in some case: L1, L2 and
    # L3 hits, memory fills, remote owners (cache-to-cache), mute
    # secondaries, dirty L3 victims written back, coherent and incoherent L2
    # victims, a contended link, and pristine as well as prepared starts.
    assert all(totals[name] > 0 for name in (*WARM_COUNTERS, "mute", "contended", "pristine"))


class TestWarmInputs:
    def test_empty_iterable_touches_nothing(self, hierarchy):
        assert hierarchy.warm(0, ()) == 0
        assert hierarchy.warm(0, iter([]), secondary_core=1) == 0
        assert hierarchy.is_pristine()

    def test_one_shot_generator_is_consumed_once(self, hierarchy):
        pulled = []

        def addresses():
            for index in range(40):
                pulled.append(index)
                yield 0x20_0000 + 64 * index

        assert hierarchy.warm(0, addresses(), secondary_core=1) == 40
        assert pulled == list(range(40))
        assert hierarchy.stats.get("l1d.misses") == 40
        assert hierarchy.stats.get("mute.l2.misses") == 40

    @pytest.mark.parametrize("core, secondary", [(4, None), (-1, None), (0, 4), (0, -1)])
    def test_out_of_range_core_raises(self, hierarchy, core, secondary):
        with pytest.raises(MemorySystemError):
            hierarchy.warm(core, [0x1000], secondary_core=secondary)
        assert hierarchy.is_pristine()


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #


class TestCheckpoint:
    def test_restore_is_in_place_and_exact(self):
        config, prelude, calls = _random_case(5)
        source = MemoryHierarchy(config)
        _apply_prelude(source, prelude)
        for primary, addresses, secondary in calls:
            source.warm(primary, addresses, secondary_core=secondary)
        target = MemoryHierarchy(config)

        def maps(hierarchy):
            return (
                hierarchy.l2[0]._lines,
                hierarchy.l3._sets,
                hierarchy._dir_entries,
                hierarchy._counts,
            )

        bound = maps(target)
        target.restore(source.checkpoint())
        assert hierarchy_state(target) == hierarchy_state(source)
        assert all(before is after for before, after in zip(bound, maps(target)))
        # The copy is independent: running on one leaves the other alone.
        state = hierarchy_state(source)
        target.warm(1, calls[0][1])
        assert hierarchy_state(source) == state

    def test_pristine_means_untouched(self, hierarchy):
        assert hierarchy.is_pristine()
        hierarchy.begin_window(500)
        assert not hierarchy.is_pristine()
        touched = MemoryHierarchy(hierarchy.config)
        touched.load(0, 0x4000)
        assert not touched.is_pristine()


class _Warmed(Exception):
    """Stops a cell right after functional warming."""


def _warm_only(states):
    def run(self):
        self._functional_warm()
        states.append(hierarchy_state(self.machine.hierarchy))
        raise _Warmed

    return run


def _spy_restore(monkeypatch):
    restores = []
    restore = MemoryHierarchy.restore

    def spy(self, checkpoint):
        restores.append(checkpoint)
        restore(self, checkpoint)

    monkeypatch.setattr(MemoryHierarchy, "restore", spy)
    return restores


def test_restored_checkpoint_equals_replayed_warming_for_every_spec(monkeypatch):
    states = []
    monkeypatch.setattr(Simulator, "run", _warm_only(states))
    restores = _spy_restore(monkeypatch)
    warmed_cells = set()
    for name, spec in EXPERIMENTS.items():
        for job in spec.enumerate_jobs(spec.request(QUICK)):
            # Replay (an empty memo), then the same cell again from the
            # checkpoint the replay left behind.
            monkeypatch.setattr(simulator_module, "_warm_checkpoint", None)
            del states[:], restores[:]
            for _ in range(2):
                try:
                    execute_job(job)
                except _Warmed:
                    pass
            if not states:
                continue  # the cell does not run the simulator
            replayed, restored = states
            assert len(restores) == 1, job.label
            assert restored == replayed, job.label
            warmed_cells.add(name)
    # Every spec but the measurement and fault-campaign ones runs the simulator.
    assert warmed_cells == set(EXPERIMENTS) - {"table1", "table2", "single-os", "faults"}


def test_non_pristine_hierarchy_bypasses_the_memo(monkeypatch):
    options = QUICK.options()
    monkeypatch.setattr(simulator_module, "_warm_checkpoint", None)
    Simulator(figure5_machine(QUICK, "apache", "reunion", 0), options)._functional_warm()
    memo = simulator_module._warm_checkpoint
    assert memo is not None
    restores = _spy_restore(monkeypatch)

    def touched_machine():
        machine = figure5_machine(QUICK, "apache", "reunion", 0)
        machine.hierarchy.load(0, 0x1000)
        return machine

    touched = touched_machine()
    Simulator(touched, options)._functional_warm()
    assert restores == []
    assert simulator_module._warm_checkpoint is memo
    # It warmed by replay, exactly as an empty memo would have.
    monkeypatch.setattr(simulator_module, "_warm_checkpoint", None)
    replayed = touched_machine()
    Simulator(replayed, options)._functional_warm()
    assert simulator_module._warm_checkpoint is None
    assert hierarchy_state(touched.hierarchy) == hierarchy_state(replayed.hierarchy)


def test_warm_key_covers_every_core_and_address():
    simulator = Simulator(figure5_machine(QUICK, "apache", "reunion", 0), QUICK.options())
    vcpus = sorted(simulator.machine.vcpus)

    def digest(*placements):
        plan = SimpleNamespace(
            placements=[
                SimpleNamespace(
                    vcpu_id=vcpu, assignment=SimpleNamespace(primary_core=p, secondary_core=s)
                )
                for vcpu, p, s in placements
            ]
        )
        return simulator._warm_digest([plan])

    base = digest((vcpus[0], 0, 1), (vcpus[1], 2, None))
    assert digest((vcpus[0], 0, 1), (vcpus[1], 2, None)) == base
    assert len({
        base,
        digest((vcpus[0], 0, 3), (vcpus[1], 2, None)),     # another secondary
        digest((vcpus[0], 0, None), (vcpus[1], 2, None)),  # no secondary
        digest((vcpus[0], 4, 1), (vcpus[1], 2, None)),     # another primary
        digest((vcpus[1], 0, 1), (vcpus[1], 2, None)),     # other addresses
        digest((vcpus[1], 2, None), (vcpus[0], 0, 1)),     # another order
    }) == 6
