"""A 4chan simulator: anonymous bump-ordered ephemeral imageboards.

Mechanics modeled (Section 2.1): users create threads with an image;
replies bump a thread to the top of the board unless saged or past the
bump limit; each board holds a bounded number of live threads — creating
a new one purges the lowest-ranked; purged threads linger in a temporary
archive and *all* threads are permanently deleted 7 days after purge.
Ephemerality is what a crawler races against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .base import IdAllocator, Post
from ..timeutil import SECONDS_PER_DAY

PLATFORM_NAME = "4chan"
ANONYMOUS = "Anonymous"

#: Threads are permanently deleted this long after being purged.
ARCHIVE_RETENTION = 7 * SECONDS_PER_DAY

_bump_time = attrgetter("last_bumped_at")


@dataclass
class FourchanPost:
    """One post; 4chan posts are anonymous (no author identity)."""

    post_number: int
    thread_id: int
    board: str
    created_at: int
    text: str
    has_image: bool = False
    #: Post numbers quoted with ``>>`` syntax.
    quotes: tuple[int, ...] = ()

    def to_post(self) -> Post:
        return Post(
            post_id=f"{self.board}/{self.post_number}",
            platform=PLATFORM_NAME,
            community=f"/{self.board}/",
            author_id=None,
            created_at=self.created_at,
            text=self.text,
        )


@dataclass
class FourchanThread:
    """A thread: an opening post plus replies, with bump bookkeeping."""

    thread_id: int
    board: str
    created_at: int
    posts: list[FourchanPost] = field(default_factory=list)
    last_bumped_at: int = 0
    purged_at: int | None = None
    deleted: bool = False

    @property
    def op(self) -> FourchanPost:
        return self.posts[0]

    @property
    def reply_count(self) -> int:
        return len(self.posts) - 1

    @property
    def is_live(self) -> bool:
        return self.purged_at is None and not self.deleted


@dataclass
class FourchanBoard:
    """Board configuration: capacity and bump limit differ per board."""

    name: str
    thread_capacity: int = 150
    bump_limit: int = 300
    thread_ids: list[int] = field(default_factory=list)


class FourchanError(Exception):
    """Raised for operations the real service would reject."""


class FourchanPlatform:
    """In-memory 4chan with bump ordering, purging, and 7-day deletion."""

    def __init__(self) -> None:
        self._ids = IdAllocator()
        self._post_counters: dict[str, int] = {}
        self.boards: dict[str, FourchanBoard] = {}
        self.threads: dict[int, FourchanThread] = {}
        self.unmaterialized_posts: int = 0
        self._materialized_posts = 0
        #: Per board, its live threads in creation order (the live
        #: subsequence of ``FourchanBoard.thread_ids``).  Threads only
        #: leave the live set when purged, so creation and purging keep
        #: it current and the views never scan dead threads.
        self._live: dict[str, list[FourchanThread]] = {}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_live" not in state:  # pickled before the live index
            self._live = {
                name: [self.threads[tid] for tid in board.thread_ids
                       if self.threads[tid].is_live]
                for name, board in self.boards.items()}

    # -- boards ---------------------------------------------------------------

    def create_board(self, name: str, thread_capacity: int = 150,
                     bump_limit: int = 300) -> FourchanBoard:
        name = name.strip("/")
        if name in self.boards:
            raise FourchanError(f"board /{name}/ already exists")
        board = FourchanBoard(name=name, thread_capacity=thread_capacity,
                              bump_limit=bump_limit)
        self.boards[name] = board
        self._live[name] = []
        return board

    def _require_board(self, name: str) -> FourchanBoard:
        board = self.boards.get(name.strip("/"))
        if board is None:
            raise FourchanError(f"unknown board /{name}/")
        return board

    def _next_post_number(self, board: str) -> int:
        self._post_counters[board] = self._post_counters.get(board, 0) + 1
        return self._post_counters[board]

    # -- posting ----------------------------------------------------------------

    def create_thread(self, board: str, text: str, created_at: int,
                      ) -> FourchanThread:
        """Open a new thread (OP must carry an image)."""
        board_obj = self._require_board(board)
        thread = FourchanThread(
            thread_id=int(self._ids.next_id("th").lstrip("th")),
            board=board_obj.name,
            created_at=created_at,
            last_bumped_at=created_at,
        )
        op = FourchanPost(
            post_number=self._next_post_number(board_obj.name),
            thread_id=thread.thread_id,
            board=board_obj.name,
            created_at=created_at,
            text=text,
            has_image=True,
        )
        thread.posts.append(op)
        self._materialized_posts += 1
        self.threads[thread.thread_id] = thread
        board_obj.thread_ids.append(thread.thread_id)
        self._live[board_obj.name].append(thread)
        self._enforce_capacity(board_obj, now=created_at)
        return thread

    def reply(self, thread_id: int, text: str, created_at: int,
              has_image: bool = False, sage: bool = False,
              quotes: tuple[int, ...] = ()) -> FourchanPost:
        """Add a reply; bumps the thread unless saged or past bump limit."""
        thread = self.threads.get(thread_id)
        if thread is None or thread.deleted:
            raise FourchanError(f"thread {thread_id} does not exist")
        if not thread.is_live:
            raise FourchanError(f"thread {thread_id} is archived")
        post = FourchanPost(
            post_number=self._next_post_number(thread.board),
            thread_id=thread_id,
            board=thread.board,
            created_at=created_at,
            text=text,
            has_image=has_image,
            quotes=quotes,
        )
        thread.posts.append(post)
        self._materialized_posts += 1
        board = self.boards[thread.board]
        if not sage and thread.reply_count <= board.bump_limit:
            thread.last_bumped_at = created_at
        return post

    # -- ephemerality -------------------------------------------------------------

    def _enforce_capacity(self, board: FourchanBoard, now: int) -> None:
        """Purge lowest-bumped threads once the board exceeds capacity."""
        live = self._live[board.name]
        excess = len(live) - board.thread_capacity
        if excess <= 0:
            return
        for thread in sorted(live, key=_bump_time)[:excess]:
            thread.purged_at = now
        self._live[board.name] = [thread for thread in live
                                  if thread.is_live]

    def expire_archives(self, now: int) -> int:
        """Permanently delete threads purged more than 7 days ago."""
        deleted = 0
        for thread in self.threads.values():
            if (thread.purged_at is not None and not thread.deleted
                    and now - thread.purged_at >= ARCHIVE_RETENTION):
                thread.deleted = True
                deleted += 1
        return deleted

    # -- views -----------------------------------------------------------------

    def catalog(self, board: str) -> list[FourchanThread]:
        """Live threads in bump order (what the site shows)."""
        board_obj = self._require_board(board)
        return sorted(self._live[board_obj.name], key=_bump_time,
                      reverse=True)

    def bump_position(self, thread_id: int) -> int | None:
        """Zero-based catalog position, or ``None`` if not live."""
        thread = self.threads.get(thread_id)
        if thread is None or not thread.is_live:
            return None
        ordering = self.catalog(thread.board)
        return next(i for i, t in enumerate(ordering)
                    if t.thread_id == thread_id)

    def record_ambient_posts(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.unmaterialized_posts += count

    @property
    def total_posts(self) -> int:
        return self._materialized_posts + self.unmaterialized_posts
