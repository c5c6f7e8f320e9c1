"""Tests for the on-disk result store (repro.serve.cache).

Round-trips, the corruption → recompute-and-repair contract, atomic
writes and LRU eviction under a cap, kept by a running tally whose
survivors must equal a scan after every put (the reference below), and
which must itself equal a scan after every operation, capped or not.
The cache's directory and caps are rows of the settings table; their
resolver cases live in tests/test_settings.py.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import ResultCache

DIGEST = "ab" + "0" * 30
OTHER = "cd" + "1" * 30


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        values = [{"queries": 3}, {"queries": 5}]
        assert cache.put(DIGEST, values)
        assert cache.get(DIGEST) == values

    def test_miss(self, tmp_path):
        # Only a write makes anything on disk.
        cache = ResultCache(tmp_path / "never" / "written")
        assert cache.get(DIGEST) is None
        assert cache.stats()["misses"] == 1
        assert cache.entry_count() == cache.total_bytes() == 0
        assert not (tmp_path / "never").exists()

    def test_entries_are_sharded_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, [1])
        assert (tmp_path / DIGEST[:2] / f"{DIGEST}.rpc").is_file()
        assert cache.entry_count() == 1

    def test_second_instance_reads_first_instances_entries(self, tmp_path):
        ResultCache(tmp_path).put(DIGEST, [1, 2])
        assert ResultCache(tmp_path).get(DIGEST) == [1, 2]

    def test_file_at_the_shard_path_declined_not_raised(self, tmp_path):
        (tmp_path / DIGEST[:2]).write_text("not a shard")
        cache = ResultCache(tmp_path)
        assert not cache.put(DIGEST, [1])
        assert cache.stats()["declined"] == 1
        assert cache.get(DIGEST) is None
        assert cache.put(OTHER, [2]) and cache.entry_count() == 1
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_unpicklable_values_declined_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.put(DIGEST, [lambda: None])
        assert cache.stats()["declined"] == 1
        assert cache.entry_count() == 0

    def test_hit_refreshes_mtime(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, [1])
        path = tmp_path / DIGEST[:2] / f"{DIGEST}.rpc"
        os.utime(path, (1, 1))
        cache.get(DIGEST)
        assert path.stat().st_mtime > 1


class TestRepair:
    def _entry_path(self, tmp_path):
        return tmp_path / DIGEST[:2] / f"{DIGEST}.rpc"

    @staticmethod
    def _checksummed_junk(blob):
        # Valid magic + checksum over a payload that is not a pickle:
        # exercises the unpickle failure path, not the checksum path.
        import hashlib

        payload = b"not a pickle"
        return (
            b"RPRC1"
            + hashlib.blake2b(payload, digest_size=16).digest()
            + payload
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: b"",  # empty file
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: b"XXXXX" + blob[5:],  # wrong magic
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),  # bit flip
            _checksummed_junk.__func__,  # unpicklable payload
        ],
        ids=["empty", "truncated", "bad-magic", "bit-flip", "junk"],
    )
    def test_defect_is_miss_plus_delete(self, tmp_path, corrupt):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, [1, 2, 3])
        path = self._entry_path(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))
        assert cache.get(DIGEST) is None
        assert not path.exists(), "corrupt entry must be deleted"
        assert cache.stats()["repairs"] == 1

    def test_recompute_and_repair_cycle(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, [1, 2, 3])
        path = self._entry_path(tmp_path)
        path.write_bytes(b"garbage")
        assert cache.get(DIGEST) is None  # miss → caller recomputes
        assert cache.put(DIGEST, [1, 2, 3])  # ...and repairs
        assert cache.get(DIGEST) == [1, 2, 3]
        stats = cache.stats()
        assert stats["repairs"] == 1 and stats["hits"] == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "e" * 30, [i])
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


class TestEviction:
    def test_cap_evicts_stalest(self, tmp_path):
        cache = ResultCache(tmp_path, cap=3)
        digests = [f"{i:02x}" + "f" * 30 for i in range(5)]
        for i, digest in enumerate(digests):
            cache.put(digest, [i])
            # Deterministic ages without sleeping.
            path = tmp_path / digest[:2] / f"{digest}.rpc"
            os.utime(path, (1000 + i, 1000 + i))
            cache._evict_over_cap()
        assert cache.entry_count() == 3
        assert cache.get(digests[0]) is None
        assert cache.get(digests[-1]) == [4]
        assert cache.stats()["evictions"] == 2

    def test_zero_cap_is_unbounded(self, tmp_path):
        cache = ResultCache(tmp_path, cap=0)
        for i in range(10):
            cache.put(f"{i:02x}" + "a" * 30, [i])
        assert cache.entry_count() == 10


class TestByteCapEviction:
    def _fill(self, cache, tmp_path, n=5, payload=1000):
        digests = [f"{i:02x}" + "e" * 30 for i in range(n)]
        for i, digest in enumerate(digests):
            cache.put(digest, ["x" * payload])
            path = tmp_path / digest[:2] / f"{digest}.rpc"
            os.utime(path, (1000 + i, 1000 + i))
        return digests

    def test_byte_cap_evicts_stalest_until_under(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        probe.put(DIGEST, ["x" * 1000])
        entry_size = probe.total_bytes()

        cache = ResultCache(tmp_path, cap_bytes=3 * entry_size)
        digests = self._fill(cache, tmp_path, n=5, payload=1000)
        cache._evict_over_cap()
        assert cache.entry_count() == 3
        assert cache.total_bytes() <= cache.cap_bytes
        # LRU: the two stalest went, the newest stayed.
        assert cache.get(digests[0]) is None
        assert cache.get(digests[1]) is None
        assert cache.get(digests[-1]) == ["x" * 1000]

    def test_byte_cap_composes_with_entry_cap(self, tmp_path):
        # Entry cap is the binding constraint here: byte cap alone
        # would keep 4 entries, the entry cap allows 2.
        probe = ResultCache(tmp_path / "probe")
        probe.put(DIGEST, ["x" * 100])
        entry_size = probe.total_bytes()
        cache = ResultCache(
            tmp_path, cap=2, cap_bytes=4 * entry_size
        )
        self._fill(cache, tmp_path, n=5, payload=100)
        cache._evict_over_cap()
        assert cache.entry_count() == 2

    def test_zero_byte_cap_is_unbounded(self, tmp_path):
        cache = ResultCache(tmp_path, cap_bytes=0)
        for i in range(10):
            cache.put(f"{i:02x}" + "b" * 30, ["x" * 1000])
        assert cache.entry_count() == 10

    def test_stats_report_bytes(self, tmp_path):
        cache = ResultCache(tmp_path, cap_bytes=1 << 20)
        cache.put(DIGEST, [1, 2, 3])
        stats = cache.stats()
        assert stats["cap_bytes"] == 1 << 20
        assert stats["bytes"] == cache.total_bytes() > 0


class TestSettings:
    def test_knobs_reach_the_store(self, tmp_path, monkeypatch):
        # Resolver cases live in tests/test_settings.py; this pins that
        # the store reads them, and that an empty directory argument
        # still means "not given".
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_CACHE_CAP", "12")
        monkeypatch.setenv("REPRO_CACHE_CAP_BYTES", "4096")
        cache = ResultCache("")
        assert cache.directory == tmp_path / "env"
        assert (cache.cap, cache.cap_bytes) == (12, 4096)
        cache = ResultCache(tmp_path / "arg", cap=7, cap_bytes=0)
        assert cache.directory == tmp_path / "arg"
        assert (cache.cap, cache.cap_bytes) == (7, 0)

    def test_existing_file_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(ValueError, match="not a directory"):
            ResultCache(target)


def _scan_evict(cache):
    """The scan every capped put ran before the running tally: glob and
    stat every entry, then evict the stalest while over either cap."""
    entries = []
    for path in cache.directory.glob("*/*.rpc"):
        try:
            stat = path.stat()
            entries.append((stat.st_mtime, str(path), path, stat.st_size))
        except OSError:
            entries.append((0.0, str(path), path, 0))
    entries.sort(key=lambda e: e[:2])
    count = len(entries)
    total = sum(size for *_, size in entries)
    for _, _, path, size in entries:
        over_count = cache.cap and count > cache.cap
        over_bytes = cache.cap_bytes and total > cache.cap_bytes
        if not over_count and not over_bytes:
            return
        path.unlink()
        count -= 1
        total -= size


class _ScanPerPut(ResultCache):
    """Reference store: every stored put is followed by a full scan."""

    def put(self, digest, values):
        caps = self.cap, self.cap_bytes
        self.cap = self.cap_bytes = 0
        try:
            stored = super().put(digest, values)
        finally:
            self.cap, self.cap_bytes = caps
        if stored:
            _scan_evict(self)
        return stored


class TestRunningTally:
    """A store scans its directory once to seed its tally, then again
    only when the tally passes a cap, and keeps exactly the entries a
    scan after every put keeps."""

    @staticmethod
    def _count_scans(cache, monkeypatch):
        scans = []
        entries = ResultCache._entries

        def counting(self):
            scans.append(1)
            return entries(self)

        monkeypatch.setattr(ResultCache, "_entries", counting)
        return scans

    @pytest.mark.parametrize(
        "caps", [(1000, 0), (0, 1 << 20), (1000, 1 << 20), (0, 0)],
        ids=["entries", "bytes", "both", "uncapped"],
    )
    def test_puts_under_the_cap_scan_at_most_once(
        self, tmp_path, monkeypatch, caps
    ):
        cache = ResultCache(tmp_path, cap=caps[0], cap_bytes=caps[1])
        scans = self._count_scans(cache, monkeypatch)
        for i in range(50):
            assert cache.put(f"{i:02x}" + "c" * 30, [i])
            cache.put(f"{i:02x}" + "c" * 30, [i, i])  # a replacement
        assert cache.stats()["entries"] == 50  # read off the tally
        assert len(scans) <= 1
        assert cache.entry_count() == 50

    def test_tally_counts_stores_replacements_and_repairs(self, tmp_path):
        cache = ResultCache(tmp_path, cap=10)
        digests = [f"{i:02x}" + "d" * 30 for i in range(4)]
        for i, digest in enumerate(digests):
            cache.put(digest, ["x" * (10 * i)])
        cache.put(digests[0], ["y" * 500])  # replacement, new size
        assert cache._tally == (4, cache.total_bytes())
        path = tmp_path / digests[1][:2] / f"{digests[1]}.rpc"
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))  # bit flip
        assert cache.get(digests[1]) is None  # repaired: one entry less
        assert cache._tally == (3, cache.total_bytes())

    def test_eviction_resyncs_the_tally(self, tmp_path):
        cache = ResultCache(tmp_path, cap=4)
        for i in range(6):
            cache.put(f"{i:02x}" + "d" * 30, ["x" * (10 * i)])
        assert cache.stats()["evictions"] == 2
        assert cache._tally == (4, cache.total_bytes())

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "get", "corrupt"]),
                st.integers(0, 11),
                st.integers(0, 400),
            ),
            max_size=40,
        ),
        caps=st.sampled_from(
            [(3, 0), (0, 1500), (5, 2500), (1, 0), (0, 0)]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_survivors_as_a_scan_after_every_put(self, ops, caps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            stores = [
                ResultCache(root / "tally", cap=caps[0], cap_bytes=caps[1]),
                _ScanPerPut(root / "scan", cap=caps[0], cap_bytes=caps[1]),
            ]
            for clock, (op, key, size) in enumerate(ops, start=10_000):
                digest = f"{key:02x}" + "e" * 30
                for store in stores:
                    path = store._path(digest)
                    if op == "put":
                        store.put(digest, ["x" * size])
                    elif op == "get":
                        store.get(digest)
                    elif path.exists():
                        path.write_bytes(b"corrupt")
                        assert store.get(digest) is None
                    # Logical ages: what each op touched is the newest,
                    # identically in both stores.
                    if path.exists():
                        os.utime(path, (clock, clock))
                survivors = [
                    sorted(p.name for p in store.directory.glob("*/*.rpc"))
                    for store in stores
                ]
                assert survivors[0] == survivors[1]
                tally = stores[0]
                assert tally.tally() == (
                    tally.entry_count(), tally.total_bytes()
                )
