"""The happens-before engine behind the sanitizer.

Vector clocks, FastTrack-style
------------------------------
Every simulation process gets a context; only contexts that *write*
tracked state are lazily assigned a vector-clock component (pid), so
clock dicts stay as small as the set of writers, not the set of
processes. Clocks are treated as immutable: joins and epoch bumps
produce fresh dicts, so a clock reference captured at attribution time
is a true snapshot.

Happens-before edges come from three places:

* **event attribution** — every heap push is attributed (by sequence
  number) to the clock of the context that pushed it; popping the event
  makes that clock the *ambient* clock its callbacks run under. This
  captures message sends, timer chains, done-event handoffs — every
  causal edge the kernel itself creates.
* **condition joins** — AnyOf/AllOf join the ambient clock of every
  child that fired into the condition (see ``_Condition._traced_check``),
  so ``all_of(replica_acks)`` orders the continuation after *all* acks,
  not just the last one to arrive.
* **reads-from joins** — a tracked read joins the last writer's clock
  into the reader; a tracked write joins the previous writer's clock
  *after* the race check. Read-check-act sequences therefore order
  themselves and only *blind* writes remain concurrent — exactly the
  OCC bug class ATM001/ATM002 describe statically.

Checks
------
``SAN001`` (stale-guard write) fires when a section read a location,
suspended at least once, and wrote it while a foreign write slipped in
between. ``SAN002`` (unordered write-write) fires when two non-relaxed
writes to one location are concurrent under the clocks and share no
lock; ``exclusive`` locations (single-apply invariants such as
"a transaction outcome is applied once") make the report explicit.
``relaxed`` writes (MVCC versioned puts, where concurrency is the
design) update the location clock but are never flagged.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from .witnesses import Site, Witness, canonical_location

__all__ = ["SanitizerRuntime"]

_EMPTY_CLOCK: Dict[int, int] = {}

#: Frames from these path fragments never appear in witness stacks. The
#: MILANA tables report their own accesses, so a site names the handler
#: that called them rather than the table's method.
_INTERNAL_FRAGMENTS = ("/repro/sansim/", "/repro/sim/", "/importlib/",
                       "/repro/milana/transaction.py",
                       "/repro/milana/validation.py")


def _join(base: Dict[int, int], other: Dict[int, int]) -> Dict[int, int]:
    """Pointwise max; returns ``base`` unchanged when it already covers."""
    if other is base or not other:
        return base
    get = base.get
    for pid, epoch in other.items():
        if get(pid, 0) < epoch:
            break
    else:
        return base
    merged = dict(base)
    for pid, epoch in other.items():
        if merged.get(pid, 0) < epoch:
            merged[pid] = epoch
    return merged


class _Context:
    """Per-process sanitizer state."""

    __slots__ = ("label", "pid", "epoch", "clock", "resumes", "section",
                 "guards", "held_locks", "hot")

    def __init__(self, label: str) -> None:
        self.label = label
        self.pid: Optional[int] = None  # assigned lazily on first write
        self.epoch = 0
        self.clock: Dict[int, int] = _EMPTY_CLOCK
        self.resumes = 0
        self.section = label
        #: location -> (write token at read, resumes at read, read Site)
        self.guards: Dict[Tuple[Any, ...], Tuple[int, int, Site]] = {}
        self.held_locks: Set[Tuple[Any, ...]] = set()
        self.hot = False


class _Location:
    """Last-writer state of one tracked location."""

    __slots__ = ("token", "writer_pid", "writer_epoch", "writer_clock",
                 "writer_site", "writer_section", "writer_locks",
                 "writer_ctx", "writers", "exclusive")

    def __init__(self) -> None:
        self.token = 0
        self.writer_pid: Optional[int] = None
        self.writer_epoch = 0
        self.writer_clock: Optional[Dict[int, int]] = None
        self.writer_site: Optional[Site] = None
        self.writer_section = ""
        self.writer_locks: FrozenSet[Tuple[Any, ...]] = frozenset()
        self.writer_ctx: Optional[_Context] = None
        self.writers: Set[int] = set()
        self.exclusive = False


class SanitizerRuntime:
    """Vector-clock tracker + race checker for one traced run.

    The :class:`~repro.sansim.kernel.TracedSimulator` drives the kernel
    hooks (``on_pop`` / ``end_fire`` / ``begin_resume`` / ``end_resume``
    / ``attribute_relay`` / ``on_condition_child``); instrumented
    protocol code drives the tracked-state API (``on_read`` /
    ``on_write`` / ``on_acquire`` / ``on_release`` / ``begin_section``).
    """

    def __init__(self, hot_locations: FrozenSet[str] = frozenset()) -> None:
        self.witnesses: List[Witness] = []
        #: Canonical locations observed contended or raced — fed back to
        #: the next trial's targeted tie-break policy.
        self.flagged_locations: Set[str] = set()
        #: Heap sequence numbers whose reordering the targeted policy
        #: should prefer (pushes made by sections touching hot state).
        self.hot_seqs: Set[int] = set()
        self.hot_locations = frozenset(hot_locations)
        self.reads = 0
        self.writes = 0
        self._ambient: Dict[int, int] = _EMPTY_CLOCK
        self._root = _Context("<root>")
        self._current = self._root
        self._stack: List[_Context] = []
        self._next_pid = 1
        self._contexts: Dict[Any, _Context] = {}
        #: heap seq -> clock of the context that pushed that entry.
        self._seq_origin: Dict[int, Dict[int, int]] = {}
        #: id(condition) -> join of fired children's ambient clocks.
        self._cond_joins: Dict[int, Dict[int, int]] = {}
        self._locations: Dict[Tuple[Any, ...], _Location] = {}
        self._cwd = str(Path.cwd())

    # -- kernel hooks (called by TracedSimulator / TracedProcess) ---------

    def on_pop(self, seq: int, event: Any) -> None:
        """An event was popped: its origin clock becomes ambient."""
        origin = self._seq_origin.pop(seq, _EMPTY_CLOCK)
        joins = self._cond_joins.pop(id(event), None)
        if joins is not None:
            origin = _join(origin, joins)
        self._ambient = origin
        self.hot_seqs.discard(seq)

    def end_fire(self, s0: int, s1: int) -> None:
        """Attribute pushes made by non-process callbacks to the ambient."""
        origin = self._ambient
        setdefault = self._seq_origin.setdefault
        for seq in range(s0, s1):
            setdefault(seq, origin)

    def begin_resume(self, process: Any) -> _Context:
        """Enter ``process``'s step under the clock that caused it.

        That is the ambient clock, except for a process started inside
        another one's step (``Simulator.start``): it runs nested, and
        inherits the starter's clock as it stands at the start call.
        """
        ctx = self._contexts.get(process)
        if ctx is None:
            generator = getattr(process, "_generator", None)
            code = getattr(generator, "gi_code", None)
            label = code.co_name if code is not None else "<process>"
            ctx = _Context(label)
            self._contexts[process] = ctx
        ctx.resumes += 1
        current = self._current
        ctx.clock = _join(ctx.clock, self._ambient if current is self._root
                          else current.clock)
        self._stack.append(self._current)
        self._current = ctx
        return ctx

    def end_resume(self, ctx: _Context, s0: int, s1: int) -> None:
        clock = ctx.clock
        setdefault = self._seq_origin.setdefault
        for seq in range(s0, s1):
            setdefault(seq, clock)
        if ctx.hot and s1 > s0:
            self.hot_seqs.update(range(s0, s1))
        self._current = self._stack.pop()

    def attribute_relay(self, seq: int, target: Any) -> None:
        """A relay event carries a finished process's outcome: the push
        inherits that process's final clock, not just the resuming one's
        (the original completion push was consumed in an earlier step)."""
        target_ctx = self._contexts.get(target)
        if target_ctx is not None:
            self._seq_origin[seq] = _join(self._current.clock,
                                          target_ctx.clock)

    def on_condition_child(self, condition: Any, child: Any) -> None:
        clock = (self._ambient if self._current is self._root
                 else self._current.clock)
        key = id(condition)
        current = self._cond_joins.get(key)
        self._cond_joins[key] = (clock if current is None
                                 else _join(current, clock))

    # -- tracked-state API (called by instrumented protocol code) ---------

    def begin_section(self, kind: str, detail: str = "") -> None:
        """Start a logical operation: guard windows reset here."""
        ctx = self._current
        ctx.section = kind
        ctx.guards.clear()

    def on_read(self, location: Tuple[Any, ...]) -> None:
        self.reads += 1
        ctx = self._current
        if ctx is self._root:
            ctx.clock = _join(ctx.clock, self._ambient)
        loc = self._locations.get(location)
        token = 0
        if loc is not None:
            token = loc.token
            if loc.writer_clock is not None:
                ctx.clock = _join(ctx.clock, loc.writer_clock)
        ctx.guards[location] = (token, ctx.resumes, self._capture_site())
        if canonical_location(location) in self.hot_locations:
            ctx.hot = True

    def on_write(self, location: Tuple[Any, ...], exclusive: bool = False,
                 relaxed: bool = False) -> None:
        self.writes += 1
        ctx = self._current
        if ctx is self._root:
            ctx.clock = _join(ctx.clock, self._ambient)
        site = self._capture_site()
        loc = self._locations.get(location)
        if loc is None:
            loc = _Location()
            self._locations[location] = loc
        if exclusive:
            loc.exclusive = True
        if ctx.pid is None:
            ctx.pid = self._next_pid
            self._next_pid += 1
        canon = canonical_location(location)
        if canon in self.hot_locations:
            ctx.hot = True
        if not relaxed:
            self._check_stale_guard(location, canon, loc, ctx, site)
            self._check_unordered_write(location, canon, loc, ctx, site,
                                        relaxed)
        # Epoch bump + publish: fresh dict, join previous writer after
        # the checks so the race (if any) was visible above.
        ctx.epoch += 1
        clock = dict(ctx.clock)
        clock[ctx.pid] = ctx.epoch
        if loc.writer_clock is not None:
            for pid, epoch in loc.writer_clock.items():
                if clock.get(pid, 0) < epoch:
                    clock[pid] = epoch
        ctx.clock = clock
        loc.token += 1
        loc.writer_pid = ctx.pid
        loc.writer_epoch = ctx.epoch
        loc.writer_clock = clock
        loc.writer_site = site
        loc.writer_section = ctx.section
        loc.writer_locks = frozenset(ctx.held_locks)
        loc.writer_ctx = ctx
        loc.writers.add(ctx.pid)
        if len(loc.writers) > 1:
            self.flagged_locations.add(canon)
        # The writer's own guard refreshes: later writes in the same
        # section are not "stale" because of this one.
        ctx.guards[location] = (loc.token, ctx.resumes, site)

    def on_acquire(self, lock: Tuple[Any, ...]) -> None:
        self._current.held_locks.add(lock)

    def on_release(self, lock: Tuple[Any, ...]) -> None:
        self._current.held_locks.discard(lock)

    # -- checks -----------------------------------------------------------

    def _check_stale_guard(self, location: Tuple[Any, ...], canon: str,
                           loc: _Location, ctx: _Context,
                           site: Site) -> None:
        guard = ctx.guards.get(location)
        if guard is None:
            return
        token, resumes_at_read, guard_site = guard
        if loc.token == token:
            return  # nothing changed since the guard
        if ctx.resumes <= resumes_at_read:
            return  # no suspension between guard and write
        if loc.writer_ctx is ctx:
            return  # own write (guard refresh missed); not foreign
        if loc.writer_locks and (ctx.held_locks & loc.writer_locks):
            return  # serialized by a common lock
        foreign = loc.writer_site
        message = (
            f"stale-guard write on {canon}: section "
            f"'{ctx.section or ctx.label}' checked it in "
            f"'{guard_site.function}' but wrote it in '{site.function}' "
            f"after a suspension, while "
            f"'{foreign.function if foreign else '<unknown>'}' "
            f"(section '{loc.writer_section}') wrote it in between; "
            f"re-check after the yield or hold the in-flight guard")
        self._report(Witness(
            rule_id="SAN001", location=canon, message=message,
            acting=site, prior=guard_site, foreign=foreign,
            section=ctx.section, detail=repr(location)), canon, ctx)

    def _check_unordered_write(self, location: Tuple[Any, ...], canon: str,
                               loc: _Location, ctx: _Context, site: Site,
                               relaxed: bool) -> None:
        if loc.writer_pid is None or loc.writer_ctx is ctx:
            return
        if ctx.clock.get(loc.writer_pid, 0) >= loc.writer_epoch:
            return  # ordered: the previous write happens-before this one
        if loc.writer_locks and (ctx.held_locks & loc.writer_locks):
            return  # serialized by a common lock
        prior = loc.writer_site or site
        flavour = ("single-apply invariant violated"
                   if loc.exclusive else "unordered write-write race")
        message = (
            f"{flavour} on {canon}: '{site.function}' (section "
            f"'{ctx.section or ctx.label}') and '{prior.function}' "
            f"(section '{loc.writer_section}') write it with no "
            f"happens-before edge and no common lock")
        self._report(Witness(
            rule_id="SAN002", location=canon, message=message,
            acting=site, prior=prior, section=ctx.section,
            detail=repr(location)), canon, ctx)

    def _report(self, witness: Witness, canon: str, ctx: _Context) -> None:
        self.witnesses.append(witness)
        self.flagged_locations.add(canon)
        ctx.hot = True

    # -- site capture -----------------------------------------------------

    def _capture_site(self, limit: int = 6) -> Site:
        frames: List[Tuple[str, int, str]] = []
        try:
            frame = sys._getframe(2)
        except ValueError:  # pragma: no cover - shallow stacks in tests
            frame = None
        while frame is not None and len(frames) < limit:
            code = frame.f_code
            path = code.co_filename.replace("\\", "/")
            if not any(fragment in path
                       for fragment in _INTERNAL_FRAGMENTS):
                frames.append((self._normalize(path), frame.f_lineno,
                               code.co_name))
            frame = frame.f_back
        if not frames:
            return Site(path="<unknown>", line=0, function="<unknown>")
        path, line, function = frames[0]
        rendered = tuple(f"{p}:{n} in {f}" for p, n, f in frames)
        return Site(path=path, line=line, function=function,
                    frames=rendered)

    def _normalize(self, path: str) -> str:
        cwd = self._cwd.replace("\\", "/").rstrip("/") + "/"
        if path.startswith(cwd):
            return path[len(cwd):]
        return path

    # -- summaries --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "tracked_reads": self.reads,
            "tracked_writes": self.writes,
            "contexts": len(self._contexts),
            "locations": len(self._locations),
            "witnesses": len(self.witnesses),
        }
