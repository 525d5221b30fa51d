"""Tests for the 4chan platform simulator (bump order, ephemerality)."""

import pytest

from repro.platforms.fourchan import (
    ARCHIVE_RETENTION,
    FourchanError,
    FourchanPlatform,
)


@pytest.fixture()
def chan():
    platform = FourchanPlatform()
    platform.create_board("pol", thread_capacity=3, bump_limit=5)
    return platform


class TestBoards:
    def test_create(self, chan):
        assert "pol" in chan.boards

    def test_duplicate_rejected(self, chan):
        with pytest.raises(FourchanError):
            chan.create_board("pol")

    def test_slashes_stripped(self, chan):
        board = chan.create_board("/sp/")
        assert board.name == "sp"


class TestThreads:
    def test_create_thread_op_has_image(self, chan):
        thread = chan.create_thread("pol", "OP text", 100)
        assert thread.op.has_image
        assert thread.op.text == "OP text"
        assert thread.reply_count == 0
        assert thread.is_live

    def test_post_numbers_sequential_per_board(self, chan):
        t1 = chan.create_thread("pol", "a", 0)
        t2 = chan.create_thread("pol", "b", 1)
        assert t2.op.post_number == t1.op.post_number + 1

    def test_unknown_board_rejected(self, chan):
        with pytest.raises(FourchanError):
            chan.create_thread("x", "a", 0)

    def test_anonymous_posts(self, chan):
        thread = chan.create_thread("pol", "a", 0)
        post = thread.op.to_post()
        assert post.author_id is None
        assert post.community == "/pol/"


class TestReplies:
    def test_reply_bumps(self, chan):
        t1 = chan.create_thread("pol", "a", 0)
        t2 = chan.create_thread("pol", "b", 10)
        chan.reply(t1.thread_id, "bump", 20)
        catalog = chan.catalog("pol")
        assert catalog[0] is t1

    def test_sage_does_not_bump(self, chan):
        t1 = chan.create_thread("pol", "a", 0)
        t2 = chan.create_thread("pol", "b", 10)
        chan.reply(t1.thread_id, "sage", 20, sage=True)
        assert chan.catalog("pol")[0] is t2

    def test_bump_limit(self, chan):
        t1 = chan.create_thread("pol", "a", 0)
        t2 = chan.create_thread("pol", "b", 1)
        for i in range(5):  # reach the bump limit on t1
            chan.reply(t1.thread_id, f"r{i}", 10 + i)
        assert chan.catalog("pol")[0] is t1
        chan.reply(t2.thread_id, "bump", 100)
        chan.reply(t1.thread_id, "past limit", 200)  # 6th reply: no bump
        assert chan.catalog("pol")[0] is t2

    def test_quotes_recorded(self, chan):
        thread = chan.create_thread("pol", "a", 0)
        post = chan.reply(thread.thread_id, ">>1", 1,
                          quotes=(thread.op.post_number,))
        assert post.quotes == (thread.op.post_number,)

    def test_reply_to_unknown_thread(self, chan):
        with pytest.raises(FourchanError):
            chan.reply(999, "x", 0)


class TestEphemerality:
    def test_capacity_purges_lowest_bumped(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(3)]
        chan.create_thread("pol", "t3", 10)  # exceeds capacity of 3
        assert threads[0].purged_at == 10
        assert all(t.is_live for t in threads[1:])

    def test_bumped_thread_survives_purge(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(3)]
        chan.reply(threads[0].thread_id, "bump", 5)
        chan.create_thread("pol", "t3", 10)
        assert threads[0].is_live
        assert threads[1].purged_at == 10

    def test_cannot_reply_to_purged(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(3)]
        chan.create_thread("pol", "t3", 10)
        with pytest.raises(FourchanError):
            chan.reply(threads[0].thread_id, "late", 20)

    def test_expire_archives_after_seven_days(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(3)]
        chan.create_thread("pol", "t3", 100)
        purged = threads[0]
        deleted = chan.expire_archives(100 + ARCHIVE_RETENTION - 1)
        assert deleted == 0
        deleted = chan.expire_archives(100 + ARCHIVE_RETENTION)
        assert deleted == 1
        assert purged.deleted

    def test_catalog_excludes_purged(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(3)]
        chan.create_thread("pol", "t3", 100)
        catalog = chan.catalog("pol")
        assert threads[0] not in catalog
        assert len(catalog) == 3

    def test_bump_position(self, chan):
        t1 = chan.create_thread("pol", "a", 0)
        t2 = chan.create_thread("pol", "b", 10)
        assert chan.bump_position(t2.thread_id) == 0
        assert chan.bump_position(t1.thread_id) == 1
        chan.reply(t1.thread_id, "bump", 20)
        assert chan.bump_position(t1.thread_id) == 0

    def test_bump_position_of_purged_is_none(self, chan):
        threads = [chan.create_thread("pol", f"t{i}", i) for i in range(4)]
        assert chan.bump_position(threads[0].thread_id) is None


class TestAccounting:
    def test_total_posts(self, chan):
        thread = chan.create_thread("pol", "a", 0)
        chan.reply(thread.thread_id, "r", 1)
        chan.record_ambient_posts(50)
        assert chan.total_posts == 52
