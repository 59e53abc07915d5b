"""A reference page-mapped FTL: the denominator of every ratio to ideal,
written out the plain way (the style of wiscsee's ``pmftl.py``).

An ``l2p`` / ``p2l`` pair, a live-page count per block, a deque of free
blocks and a greedy victim: fewest live pages, the lower block number on
a tie.  Garbage collection runs when the host log needs a new block
while the deque holds ``gc_free_threshold`` blocks or fewer - the
reserve :class:`repro.ftl.pure_page.PageFTL` keeps - and moves the
victim's live pages, in page order, to the end of a log: the host's own
(one log, as ``pmftl.py``), or with ``gc_log=True`` a second log that
only GC writes, as ideal's GC frontier.  A full log block becomes a GC
candidate when its log next needs a page.  No timing, no OOB, no
channels: it counts page programs and erases.

It takes logical page numbers (a ``Trace``'s write lpns) and imports
nothing from ``repro``.
"""

from collections import deque


class ReferenceFTL:
    def __init__(self, num_blocks, pages_per_block, gc_free_threshold=2,
                 gc_log=False):
        self.ppb = pages_per_block
        self.threshold = gc_free_threshold
        self.l2p = {}  # lpn -> ppn of its live copy
        self.p2l = {}  # ppn -> lpn, live pages only
        self.valid = [0] * num_blocks  # live pages per block
        self.free = deque(range(num_blocks))  # erased, oldest-freed first
        self.used = set()  # full blocks: the GC candidates
        # A log is [open block or None, pages written in it].
        self.host_log = [None, pages_per_block]
        self.gc_log = [None, pages_per_block] if gc_log else self.host_log
        self.host_writes = 0
        self.programs = 0
        self.erases = 0

    def run(self, lpns):
        for lpn in lpns:
            self.write(lpn)
        return self

    def write(self, lpn):
        self.host_writes += 1
        log = self.host_log
        if log[1] == self.ppb:
            self._retire(log)
            while len(self.free) <= self.threshold:
                self.collect()
        self._append(lpn, log)

    def victim(self):
        """Greedy: the full block with the fewest live pages."""
        return min(self.used, key=lambda pbn: (self.valid[pbn], pbn))

    def collect(self):
        victim = self.victim()
        if self.valid[victim] == self.ppb:
            raise RuntimeError("no full block has a page to reclaim")
        self.used.discard(victim)
        first = victim * self.ppb
        for ppn in range(first, first + self.ppb):
            if ppn in self.p2l:
                self._append(self.p2l[ppn], self.gc_log)
        self.erases += 1
        self.free.append(victim)

    def _retire(self, log):
        if log[0] is not None:
            self.used.add(log[0])
            log[0] = None

    def _append(self, lpn, log):
        """Program ``lpn`` at ``log``'s next page; invalidate its old copy."""
        if log[1] == self.ppb:
            self._retire(log)
            log[0], log[1] = self.free.popleft(), 0
        ppn = log[0] * self.ppb + log[1]
        log[1] += 1
        old = self.l2p.get(lpn)
        if old is not None:
            del self.p2l[old]
            self.valid[old // self.ppb] -= 1
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        self.valid[log[0]] += 1
        self.programs += 1
