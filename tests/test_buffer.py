"""Paged-file and buffer-pool tests."""

import pytest

from repro.errors import BufferPoolError, InjectedCrashError, PageError
from repro.faults.injector import FaultInjector
from repro.storage.buffer import BufferPool, PagedFile, checksum_ok
from repro.storage.interface import StorageStats
from repro.storage.page import PAGE_SIZE, USABLE_END, SlottedPage


@pytest.fixture
def paged_file(tmp_path):
    file = PagedFile(str(tmp_path / "data.pages"))
    yield file
    file.close()


def test_allocate_and_roundtrip(paged_file):
    page_no = paged_file.allocate_page()
    assert page_no == 0
    raw = bytearray(PAGE_SIZE)
    raw[:5] = b"hello"
    paged_file.write_page(page_no, raw)
    assert paged_file.read_page(page_no)[:5] == b"hello"


def test_read_out_of_range_raises(paged_file):
    with pytest.raises(PageError):
        paged_file.read_page(0)


def test_write_wrong_size_raises(paged_file):
    paged_file.allocate_page()
    with pytest.raises(PageError):
        paged_file.write_page(0, b"short")


def test_allocated_page_is_zeroed(paged_file):
    page_no = paged_file.allocate_page()
    raw = paged_file.read_page(page_no)
    # body is zeroed; the trailing 4 bytes hold the stamped CRC
    assert raw[:USABLE_END] == bytearray(USABLE_END)
    assert checksum_ok(raw)


def test_reopen_preserves_pages(tmp_path):
    path = str(tmp_path / "x.pages")
    file = PagedFile(path)
    file.allocate_page()
    raw = bytearray(PAGE_SIZE)
    raw[:3] = b"abc"
    file.write_page(0, raw)
    file.close()
    file2 = PagedFile(path)
    assert file2.num_pages == 1
    assert file2.read_page(0)[:3] == b"abc"
    file2.close()


class TestBufferPool:
    def _pool(self, paged_file, capacity=3, stats=None):
        return BufferPool(paged_file, capacity=capacity, stats=stats)

    def test_fetch_pins_page(self, paged_file):
        pool = self._pool(paged_file)
        page_no = paged_file.allocate_page()
        page = pool.fetch(page_no)
        assert isinstance(page, SlottedPage)
        pool.unpin(page_no, dirty=False)

    def test_unpin_unfetched_raises(self, paged_file):
        pool = self._pool(paged_file)
        paged_file.allocate_page()
        with pytest.raises(BufferPoolError):
            pool.unpin(0, dirty=False)

    def test_fetch_same_page_twice_shares_frame(self, paged_file):
        pool = self._pool(paged_file)
        page_no = paged_file.allocate_page()
        a = pool.fetch(page_no)
        b = pool.fetch(page_no)
        assert a is b
        pool.unpin(page_no, dirty=False)
        pool.unpin(page_no, dirty=False)

    def test_dirty_page_written_back_on_eviction(self, paged_file):
        pool = self._pool(paged_file, capacity=1)
        p0 = paged_file.allocate_page()
        p1 = paged_file.allocate_page()
        page = pool.fetch(p0)
        page.insert(b"dirty-data")
        pool.unpin(p0, dirty=True)
        pool.fetch(p1)  # evicts p0
        pool.unpin(p1, dirty=False)
        fresh = SlottedPage(paged_file.read_page(p0))
        assert list(fresh.records()) == [(0, b"dirty-data")]

    def test_all_pinned_exhausts_pool(self, paged_file):
        pool = self._pool(paged_file, capacity=1)
        p0 = paged_file.allocate_page()
        p1 = paged_file.allocate_page()
        pool.fetch(p0)
        with pytest.raises(BufferPoolError):
            pool.fetch(p1)

    def test_flush_all_writes_dirty_frames(self, paged_file):
        pool = self._pool(paged_file)
        p0 = paged_file.allocate_page()
        page = pool.fetch(p0)
        page.insert(b"flushed")
        pool.unpin(p0, dirty=True)
        pool.flush_all()
        fresh = SlottedPage(paged_file.read_page(p0))
        assert list(fresh.records()) == [(0, b"flushed")]

    def test_drop_all_discards_unwritten_changes(self, paged_file):
        pool = self._pool(paged_file)
        p0 = paged_file.allocate_page()
        page = pool.fetch(p0)
        page.insert(b"lost")
        pool.unpin(p0, dirty=True)
        pool.drop_all()
        fresh = SlottedPage(paged_file.read_page(p0))
        assert list(fresh.records()) == []

    def test_drop_all_with_pins_raises(self, paged_file):
        pool = self._pool(paged_file)
        p0 = paged_file.allocate_page()
        pool.fetch(p0)
        with pytest.raises(BufferPoolError):
            pool.drop_all()

    def test_hit_miss_eviction_stats(self, paged_file):
        stats = StorageStats()
        pool = self._pool(paged_file, capacity=2, stats=stats)
        pages = [paged_file.allocate_page() for _ in range(3)]
        pool.fetch(pages[0])
        pool.unpin(pages[0], dirty=False)
        pool.fetch(pages[0])
        pool.unpin(pages[0], dirty=False)
        assert stats.page_hits == 1
        assert stats.page_misses == 1
        pool.fetch(pages[1])
        pool.unpin(pages[1], dirty=False)
        pool.fetch(pages[2])  # evicts LRU
        pool.unpin(pages[2], dirty=False)
        assert stats.page_evictions == 1

    def test_lru_evicts_least_recently_used(self, paged_file):
        pool = self._pool(paged_file, capacity=2)
        pages = [paged_file.allocate_page() for _ in range(3)]
        pool.fetch(pages[0])
        pool.unpin(pages[0], dirty=False)
        pool.fetch(pages[1])
        pool.unpin(pages[1], dirty=False)
        pool.fetch(pages[0])  # touch 0: now 1 is LRU
        pool.unpin(pages[0], dirty=False)
        pool.fetch(pages[2])
        pool.unpin(pages[2], dirty=False)
        assert pages[1] not in pool.cached_pages()
        assert pages[0] in pool.cached_pages()

    def test_pre_write_hook_called_before_writeback(self, paged_file):
        calls = []
        pool = BufferPool(paged_file, capacity=1, pre_write=lambda: calls.append(1))
        p0 = paged_file.allocate_page()
        p1 = paged_file.allocate_page()
        page = pool.fetch(p0)
        page.insert(b"data")
        pool.unpin(p0, dirty=True)
        pool.fetch(p1)  # eviction writes p0 -> hook fires
        assert calls == [1]

    def test_capacity_must_be_positive(self, paged_file):
        with pytest.raises(BufferPoolError):
            BufferPool(paged_file, capacity=0)


class TestSlotRead:
    """``BufferPool.slot`` reads what ``fetch`` + ``page.get`` + ``unpin``
    read, under one mutex hold and with no pin: it must count, load and
    check exactly as they do."""

    @staticmethod
    def _pages(paged_file, count, pool):
        pages = [paged_file.allocate_page() for _ in range(count)]
        for page_no in pages:
            page = pool.fetch(page_no)
            page.insert(b"page-%d" % page_no)
            pool.unpin(page_no, dirty=True)
        pool.flush_all()
        pool.drop_all()
        return pages

    def test_reads_the_slot_and_leaves_no_pin(self, paged_file):
        pool = BufferPool(paged_file, capacity=2)
        pages = self._pages(paged_file, 3, pool)
        for page_no in pages:
            assert pool.slot(page_no, 0) == b"page-%d" % page_no
        assert all(frame.pin_count == 0 for frame in pool._frames.values())
        pool.drop_all()
        assert len(pool) == 0

    def test_counters_move_as_fetch_and_unpin_move_them(self, paged_file):
        pages = self._pages(paged_file, 3, BufferPool(paged_file, capacity=2))
        reads = [0, 1, 0, 2, 1, 1, 0]

        def run(read):
            stats = StorageStats()
            pool = BufferPool(paged_file, capacity=2, stats=stats)
            got = [read(pool, pages[i]) for i in reads]
            return got, (stats.page_hits, stats.page_misses, stats.page_evictions)

        def via_fetch(pool, page_no):
            page = pool.fetch(page_no)
            try:
                return page.get(0)
            finally:
                pool.unpin(page_no, dirty=False)

        fused = run(lambda pool, page_no: pool.slot(page_no, 0))
        assert fused == run(via_fetch)
        assert fused[1] == (2, 5, 3)

    def test_a_miss_fires_the_page_read_failpoint(self, tmp_path):
        injector = FaultInjector(recording=True)
        paged_file = PagedFile(str(tmp_path / "data.pages"), injector=injector)
        try:
            pool = BufferPool(paged_file, capacity=2)
            page_no = paged_file.allocate_page()
            before = [hit.point for hit in injector.trace].count("page.read")
            pool.slot(page_no, 0)  # miss
            pool.slot(page_no, 0)  # hit
            reads = [hit.point for hit in injector.trace].count("page.read")
            assert reads == before + 1
        finally:
            paged_file.close()

    def test_a_failed_read_leaves_no_pin(self, tmp_path):
        injector = FaultInjector()
        paged_file = PagedFile(str(tmp_path / "data.pages"), injector=injector)
        try:
            pool = BufferPool(paged_file, capacity=2)
            page_no = paged_file.allocate_page()
            injector.crash_on("page.read")
            with pytest.raises(InjectedCrashError):
                pool.slot(page_no, 0)
            pool.drop_all()
        finally:
            paged_file.close()

    def test_out_of_range_and_tombstoned_slots_are_none(self, paged_file):
        pool = BufferPool(paged_file, capacity=2)
        page_no = paged_file.allocate_page()
        page = pool.fetch(page_no)
        kept = page.insert(b"kept")
        gone = page.insert(b"gone")
        page.delete(gone)
        pool.unpin(page_no, dirty=True)
        assert pool.slot(page_no, kept) == b"kept"
        assert pool.slot(page_no, gone) is None
        assert pool.slot(page_no, 99) is None
        assert pool._frames[page_no].pin_count == 0
        pool.drop_all()
