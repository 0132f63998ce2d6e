"""Tests for LocalStore: the acceptance rule and replica bookkeeping."""

import pytest

from repro.core.errors import CapacityError
from repro.core.storage import LocalStore
from repro.security import FileCertificate
from repro.security.keys import KeyPair

OWNER = KeyPair("store-owner")


def cert(fid=1, size=100, k=3):
    return FileCertificate.issue(fid, size, k, 0, 0, OWNER)


def make(capacity=1000, **kw):
    return LocalStore(capacity, **kw)


class TestAcceptancePolicy:
    def test_accepts_small_file_when_empty(self):
        assert make(1000).can_accept(100, threshold=0.1)

    def test_rejects_when_over_threshold(self):
        """Reject iff size/free > t (the paper's SD/FN rule)."""
        store = make(1000)
        assert store.can_accept(100, 0.1)  # exactly t is allowed
        assert not store.can_accept(101, 0.1)

    def test_rejects_larger_than_free(self):
        assert not make(1000).can_accept(1001, 1.0)

    def test_threshold_applies_to_remaining_free_space(self):
        store = make(1000)
        store.store_replica(cert(1, 500), diverted=False)
        assert store.can_accept(50, 0.1)
        assert not store.can_accept(51, 0.1)

    def test_zero_size_always_accepted(self):
        store = make(10)
        store.store_replica(cert(1, 10), diverted=False)
        assert store.free == 0
        assert store.can_accept(0, 0.05)

    def test_full_node_rejects_everything_else(self):
        store = make(10)
        store.store_replica(cert(1, 10), diverted=False)
        assert not store.can_accept(1, 1.0)


class TestReplicaBookkeeping:
    def test_store_primary(self):
        store = make()
        replica = store.store_replica(cert(1, 100), diverted=False)
        assert not replica.diverted
        assert store.holds_file(1)
        assert store.used == 100 and store.free == 900

    def test_store_diverted(self):
        store = make()
        store.store_replica(cert(1, 100), diverted=True)
        assert 1 in store.diverted_in and 1 not in store.primaries

    def test_duplicate_replica_rejected(self):
        store = make()
        store.store_replica(cert(1, 100), diverted=False)
        with pytest.raises(CapacityError):
            store.store_replica(cert(1, 100), diverted=True)

    def test_oversize_replica_rejected(self):
        with pytest.raises(CapacityError):
            make(50).store_replica(cert(1, 100), diverted=False)

    def test_drop_replica_frees_space(self):
        store = make()
        store.store_replica(cert(1, 100), diverted=False)
        dropped = store.drop_replica(1)
        assert dropped.size == 100
        assert store.used == 0 and not store.holds_file(1)

    def test_drop_absent_returns_none(self):
        assert make().drop_replica(9) is None

    def test_accounting_hook_sees_deltas(self):
        deltas = []
        store = LocalStore(1000, accounting=deltas.append)
        store.store_replica(cert(1, 100), diverted=False)
        store.drop_replica(1)
        assert deltas == [100, -100]

    def test_replica_displaces_cached_copy(self):
        store = make()
        store.cache.consider(1, 100)
        store.store_replica(cert(1, 100), diverted=False)
        assert 1 not in store.cache
        assert store.holds_file(1)

    def test_new_replica_shrinks_cache(self):
        store = make(1000)
        store.cache.consider(50, 800)
        store.store_replica(cert(1, 600), diverted=False)
        assert store.used + store.cache.bytes_used <= store.capacity


class TestPointers:
    def test_add_and_query(self):
        store = make()
        store.add_pointer(cert(1, 100), target_id=42, primary=True)
        assert store.references_file(1)
        assert not store.holds_file(1)
        assert store.pointers[1].target_id == 42

    def test_pointer_consumes_no_space(self):
        store = make()
        store.add_pointer(cert(1, 100), 42, True)
        assert store.used == 0

    def test_drop_pointer(self):
        store = make()
        store.add_pointer(cert(1, 100), 42, True)
        assert store.drop_pointer(1) is not None
        assert store.drop_pointer(1) is None

    def test_certificate_for_prefers_replica(self):
        store = make()
        c = cert(1, 100)
        store.store_replica(c, diverted=False)
        assert store.certificate_for(1) is c

    def test_certificate_for_pointer(self):
        store = make()
        c = cert(1, 100)
        store.add_pointer(c, 42, True)
        assert store.certificate_for(1) is c

    def test_certificate_for_absent(self):
        assert make().certificate_for(5) is None

    def test_file_ids_unions_everything(self):
        store = make()
        store.store_replica(cert(1, 10), diverted=False)
        store.store_replica(cert(2, 10), diverted=True)
        store.add_pointer(cert(3, 10), 42, True)
        assert set(store.file_ids()) == {1, 2, 3}


class TestSnapshot:
    def test_snapshot_fields(self):
        store = make(500)
        store.store_replica(cert(1, 100), diverted=False)
        snap = store.snapshot()
        assert snap["capacity"] == 500
        assert snap["used"] == 100
        assert snap["primaries"] == 1

    def test_utilization(self):
        store = make(500)
        store.store_replica(cert(1, 100), diverted=False)
        assert store.utilization() == pytest.approx(0.2)

    def test_zero_capacity_utilization(self):
        assert LocalStore(0).utilization() == 1.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LocalStore(-1)


class TestDiskFaultAccounting:
    """Charge/refund symmetry and write refusal under a storage fault plan."""

    def make_faulty(self, node_id=5, **plan_kw):
        from repro.netsim.faults import StorageFaultPlan

        store = make(1000)
        store.node_id = node_id
        plan = StorageFaultPlan(seed=2, **plan_kw)
        store.fault_plan = plan
        store.now = lambda: 1.0
        return store, plan

    def rot_once(self, store, plan, fid):
        """One second on, certain rot for exactly one verified read,
        then zero hazard again."""
        from repro.netsim.faults import READ_CORRUPT

        later = store.now() + 1.0
        store.now = lambda: later
        plan.bitrot_rate = 1e9
        assert store.verify_replica(fid) == READ_CORRUPT
        plan.bitrot_rate = 0.0

    def test_charge_refund_symmetry_through_corruption_and_repair(self):
        from repro.core.storage import REPLICA_MISSING
        from repro.netsim.faults import READ_OK

        store, plan = self.make_faulty()
        replica = store.store_replica(cert(1, 100), diverted=False)
        assert not replica.corrupted and store.used == 100
        self.rot_once(store, plan, 1)
        assert replica.corrupted and store.used == 100
        assert store.repair_replica(1)
        assert store.used == 100 and not replica.corrupted
        assert store.verify_replica(1) == READ_OK
        store.drop_replica(1)
        assert store.used == 0
        assert not plan.is_corrupt(5, 1)
        assert store.verify_replica(1) == REPLICA_MISSING
        assert not store.repair_replica(1)

    def test_readonly_disk_raises_capacity_error(self):
        from repro.netsim.faults import DISK_READONLY

        store, plan = self.make_faulty()
        plan.set_disk_mode(5, DISK_READONLY)
        assert not store.can_accept(10, 1.0)
        with pytest.raises(CapacityError):
            store.store_replica(cert(2, 10), diverted=False)
        assert plan.stats.writes_refused == 1
        assert store.used == 0 and not store.holds_file(2)

    def test_readonly_disk_refuses_repair_rewrite(self):
        from repro.netsim.faults import DISK_READONLY

        store, plan = self.make_faulty()
        store.store_replica(cert(1, 100), diverted=False)
        self.rot_once(store, plan, 1)
        plan.set_disk_mode(5, DISK_READONLY)
        assert not store.repair_replica(1)
        assert store.get_replica(1).corrupted
        assert plan.stats.writes_refused == 1

    def test_corrupt_cache_copy_is_evicted_not_repaired(self):
        store, plan = self.make_faulty(bitrot_rate=1e9)
        now = {"t": 0.0}
        store.now = lambda: now["t"]
        assert store.cache.consider(9, 50)
        store.note_cached(9)
        now["t"] = 1.0
        assert not store.verified_cache_hit(9)
        assert not store.cache.lookup(9)
        # The corruption record leaves with the evicted copy: a future
        # replica of the same fid on this disk starts clean.
        assert not plan.is_corrupt(5, 9)

    def test_verified_cache_hit_clean_path(self):
        store, plan = self.make_faulty()
        state = plan.rng.getstate()
        assert store.cache.consider(9, 50)
        store.note_cached(9)
        assert store.verified_cache_hit(9)
        assert plan.rng.getstate() == state  # zero rates -> zero draws

    def test_no_plan_paths_are_noops(self):
        from repro.netsim.faults import READ_OK

        store = make(1000)
        store.store_replica(cert(1, 100), diverted=False)
        assert store.verify_replica(1) == READ_OK
        assert store.repair_replica(1)
        assert store.cache.consider(9, 50)
        store.note_cached(9)
        assert store.verified_cache_hit(9)
        assert store._cache_checked == {}
