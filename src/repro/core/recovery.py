"""Checkpointing and crash recovery (the paper's "basic design that assists
LazyFTL to recover from system failures").

Checkpoints are written to two reserved *anchor blocks* (ping-pong): a
checkpoint captures the GTD, the UBA/CBA/DBA/MBA membership lists and the
free list - but **not** the UMT, which changes on every host write.  After
a crash, recovery:

1. scans the anchor blocks for the latest complete checkpoint;
2. re-scans the OOB areas of the (small) UBA, CBA, MBA and free-listed
   blocks, plus a one-page probe of each checkpointed DBA block to detect
   post-checkpoint role changes;
3. rebuilds the GTD from the newest copy of every GMT page found, and the
   UMT by comparing each data page's OOB sequence number against the GMT -
   a data page newer than its committed mapping is an uncommitted update.

Every acknowledged write is recovered: its page (and OOB reverse mapping)
is on flash, and its block is always inside the scan set.

Modelling note: the simulator preserves page valid/invalid flags across a
power cycle.  Real controllers recompute validity lazily (exactly the
UMT-vs-GMT comparison recovery performs) or persist bitmaps; the recovered
*mapping* state, which is what correctness rests on, is rebuilt here purely
from flash-resident information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.errors import BadBlockError
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, PageKind, SequenceCounter
from ..ftl.stats import FtlStats
from ..obs.events import Cause
from .config import LazyConfig


@dataclass(frozen=True)
class _Fragment:
    """Payload of one checkpoint page."""

    ckpt_id: int
    total: int
    index: int
    state: Optional[Dict[str, Any]]  # full state rides on fragment 0


class CheckpointError(RuntimeError):
    """A checkpoint could not be written (state exceeds anchor capacity)."""


class CheckpointScribe:
    """Writes checkpoints into the reserved anchor blocks (ping-pong).

    The active anchor is appended to until it cannot hold the next
    checkpoint; then the *other* anchor is erased and becomes active, so
    the previous checkpoint always survives a crash mid-write.
    """

    def __init__(
        self,
        flash: NandFlash,
        anchors: Tuple[int, ...],
        seq: SequenceCounter,
        stats: FtlStats,
    ):
        if len(anchors) != 2:
            raise ValueError("exactly two anchor blocks are required")
        self.flash = flash
        self.anchors = tuple(anchors)
        self.seq = seq
        self.stats = stats
        self._current = anchors[0]

    def fragments_needed(self, state: Dict[str, Any]) -> int:
        """Pages a checkpoint occupies, from its serialized size."""
        gtd_entries = len(state["maps"]["gtd"])
        list_entries = (
            len(state["uba"]) + len(state["cba"]) + len(state["dba"])
            + len(state["free"]) + len(state["maps"]["full_blocks"]) + 8
        )
        nbytes = (gtd_entries + list_entries) * MAP_ENTRY_BYTES + 64
        page = self.flash.geometry.page_size
        return max(1, (nbytes + page - 1) // page)

    def write(self, state: Dict[str, Any]) -> float:
        """Persist one checkpoint; returns the flash latency charged."""
        n = self.fragments_needed(state)
        if n > self.flash.geometry.pages_per_block:
            raise CheckpointError(
                f"checkpoint needs {n} pages but an anchor block holds only "
                f"{self.flash.geometry.pages_per_block}"
            )
        latency = 0.0
        geometry = self.flash.geometry
        write_ptr = self.flash.write_ptr
        if geometry.pages_per_block - write_ptr[self._current] < n:
            latency += self._rotate()
        ckpt_id = self.seq.current
        for index in range(n):
            ppn = geometry.ppn_of(self._current, write_ptr[self._current])
            fragment = _Fragment(
                ckpt_id=ckpt_id,
                total=n,
                index=index,
                state=state if index == 0 else None,
            )
            latency += self.flash.program_page(
                ppn,
                fragment,
                OOBData(lpn=index, seq=self.seq.next(),
                        kind=PageKind.CHECKPOINT),
            )
            self.stats.checkpoint_writes += 1
        return latency

    def _rotate(self) -> float:
        """Switch to the other anchor, erasing its stale contents."""
        other = self.anchors[1] if self._current == self.anchors[0] \
            else self.anchors[0]
        for ppn in self.flash.valid_ppns(other):
            self.flash.invalidate_page(ppn)
        latency = 0.0
        if self.flash.write_ptr[other] > 0:
            try:
                latency += self.flash.erase_block(other)
            except BadBlockError as exc:
                raise CheckpointError(
                    f"checkpoint anchor {other} wore out - recovery "
                    "metadata can no longer be persisted (device "
                    "end of life)"
                ) from exc
        self._current = other
        return latency


@dataclass
class RecoveryReport:
    """What recovery did and what it cost."""

    checkpoint_found: bool
    checkpoint_seq: int
    pages_read: int
    blocks_fully_scanned: int
    blocks_probed: int
    umt_entries_rebuilt: int
    latency_us: float


def recover(
    flash: NandFlash,
    logical_pages: int,
    config: Optional[LazyConfig] = None,
):
    """Rebuild a LazyFTL instance from flash after a power loss.

    Returns ``(ftl, report)``.  The device is powered on; all RAM state of
    the previous instance is discarded and reconstructed from checkpoints
    and OOB scans.
    """
    from .lazyftl import ANCHOR_BLOCKS, LazyFTL

    flash.power_on()
    # Attribute the whole scan to the recovery cause if a tracer is
    # attached to the device (recovery predates the rebuilt FTL, so the
    # tracer rides on the flash chip here).
    tracer = flash.tracer
    if tracer is not None:
        tracer.push_cause(Cause.RECOVERY)
    ftl = LazyFTL(flash, logical_pages, config)
    geometry = flash.geometry
    latency = 0.0
    pages_read = 0

    # ------------------------------------------------------------------
    # 1. Latest complete checkpoint from the anchor blocks
    # ------------------------------------------------------------------
    candidates: Dict[int, Dict[int, _Fragment]] = {}
    max_seq = -1
    for anchor in ANCHOR_BLOCKS:
        for offset in range(geometry.pages_per_block):
            ppn = geometry.ppn_of(anchor, offset)
            oob, lat = flash.probe_page(ppn)
            latency += lat
            pages_read += 1
            if oob is None:
                break  # anchors are programmed sequentially
            max_seq = max(max_seq, oob.seq)
            if oob.kind is not PageKind.CHECKPOINT:
                continue
            fragment, lat2 = flash.read_page(ppn)
            latency += lat2
            pages_read += 1
            candidates.setdefault(fragment.ckpt_id, {})[fragment.index] = \
                fragment
    state: Optional[Dict[str, Any]] = None
    checkpoint_seq = -1
    for ckpt_id in sorted(candidates, reverse=True):
        frags = candidates[ckpt_id]
        total = next(iter(frags.values())).total
        if len(frags) == total and 0 in frags:
            state = frags[0].state
            checkpoint_seq = ckpt_id
            break

    # ------------------------------------------------------------------
    # 2. Decide the scan set
    # ------------------------------------------------------------------
    non_anchor = [b for b in range(geometry.num_blocks)
                  if b not in ANCHOR_BLOCKS]
    blocks_probed = 0
    if state is None:
        full_scan = list(non_anchor)  # first boot / lost checkpoint
        ckpt_seq_bound = -1
    else:
        ckpt_seq_bound = state["seq"]
        full_scan = sorted(
            set(state["uba"]) | set(state["cba"]) | set(state["free"])
            | set(state["maps"]["full_blocks"])
            | ({state["maps"]["frontier"]}
               if state["maps"]["frontier"] is not None else set())
            # Older open mapping blocks (only present when several
            # were open; never in serial-device checkpoints).
            | set(state["maps"].get("open", ()))
        )
        scanned = set(full_scan)
        for pbn in state["dba"]:
            if pbn in scanned:
                continue
            oob, lat = flash.probe_page(geometry.ppn_of(pbn, 0))
            latency += lat
            pages_read += 1
            blocks_probed += 1
            if oob is not None and oob.seq <= ckpt_seq_bound:
                continue  # untouched since the checkpoint: still DBA
            full_scan.append(pbn)  # rewritten (or erased) since: re-learn it

    # ------------------------------------------------------------------
    # 3. OOB scan: newest GMT pages and data-page candidates
    # ------------------------------------------------------------------
    map_best: Dict[int, Tuple[int, int]] = {}      # tvpn -> (seq, ppn)
    data_best: Dict[int, Tuple[int, int, bool]] = {}  # lpn -> (seq, ppn, cold)
    block_pages: Dict[int, List[OOBData]] = {}
    for pbn in full_scan:
        found: List[OOBData] = []
        for offset in range(geometry.pages_per_block):
            ppn = geometry.ppn_of(pbn, offset)
            oob, lat = flash.probe_page(ppn)
            latency += lat
            pages_read += 1
            if oob is None:
                break  # sequential programming: the rest is erased
            found.append(oob)
            if oob.kind is PageKind.MAPPING:
                prev = map_best.get(oob.lpn)
                if prev is None or oob.seq > prev[0]:
                    map_best[oob.lpn] = (oob.seq, ppn)
            elif oob.kind is PageKind.DATA:
                prev_d = data_best.get(oob.lpn)
                if prev_d is None or oob.seq > prev_d[0]:
                    data_best[oob.lpn] = (oob.seq, ppn, oob.cold)
        block_pages[pbn] = found

    # ------------------------------------------------------------------
    # 4. Rebuild the GTD, then the UMT by GMT comparison
    # ------------------------------------------------------------------
    gtd: List[Optional[int]] = [None] * ftl.num_tvpns
    map_seq: Dict[int, int] = {}
    if state is not None:
        for tvpn, ppn in enumerate(state["maps"]["gtd"]):
            if ppn is not None:
                gtd[tvpn] = ppn
                map_seq[tvpn] = -1  # refined below if the page was scanned
    for tvpn, (seq, ppn) in map_best.items():
        prev_seq = map_seq.get(tvpn, -2)
        if seq > prev_seq or gtd[tvpn] is None:
            gtd[tvpn] = ppn
            map_seq[tvpn] = seq

    umt_state: Dict[int, int] = {}
    gmt_content: Dict[int, list] = {}
    for lpn, (seq, ppn, _) in data_best.items():
        tvpn = lpn // ftl.entries_per_page
        tppn = gtd[tvpn]
        committed = -1  # unmapped, as a GMT entry says it
        if tppn is not None:
            if tvpn not in gmt_content:
                content, lat = flash.read_page(tppn)
                latency += lat
                pages_read += 1
                gmt_content[tvpn] = content
            committed = gmt_content[tvpn][lpn % ftl.entries_per_page]
        if committed == ppn:
            continue  # already committed to the GMT
        if committed >= 0:
            # The GMT points somewhere else.  Probe that page: if it is a
            # *newer* copy of this lpn, our scanned candidate is a stale
            # leftover (its live successor sits in an unscanned data
            # block); otherwise the GMT value itself is the stale one -
            # superseded by the uncommitted write we just found.
            c_oob, lat = flash.probe_page(committed)
            latency += lat
            pages_read += 1
            if c_oob is not None and c_oob.kind is PageKind.DATA \
                    and c_oob.lpn == lpn and c_oob.seq > seq:
                continue
        umt_state[lpn] = ppn

    # ------------------------------------------------------------------
    # 5. Classify scanned blocks into areas and rebuild the instance
    # ------------------------------------------------------------------
    umt_blocks: Dict[int, List[int]] = {}
    for lpn, ppn in umt_state.items():
        umt_blocks.setdefault(geometry.block_of(ppn), []).append(lpn)

    uba: List[Tuple[int, int]] = []  # (min_seq, pbn)
    cba: List[Tuple[int, int]] = []
    mba_full: List[int] = []
    mba_open: List[Tuple[int, int]] = []
    scanned = frozenset(full_scan)
    dba: List[int] = [] if state is None else [
        b for b in state["dba"] if b not in scanned
    ]
    free: List[int] = []
    for pbn in full_scan:
        found = block_pages[pbn]
        if not found:
            free.append(pbn)
            continue
        min_seq = min(o.seq for o in found)
        if found[0].kind is PageKind.MAPPING:
            if flash.write_ptr[pbn] >= flash.geometry.pages_per_block:
                mba_full.append(pbn)
            else:
                mba_open.append((min_seq, pbn))
            continue
        if pbn in umt_blocks:
            if data_best[umt_blocks[pbn][0]][2]:  # the OOB's cold flag
                cba.append((min_seq, pbn))
            else:
                uba.append((min_seq, pbn))
        else:
            dba.append(pbn)

    ftl._umt.restore(umt_state)
    # The mapping store keeps only its newest partially-written block
    # open; older ones retire as full, which wastes their free pages but
    # stays correct.
    mba_open.sort()
    uba.sort()
    cba.sort()
    ftl._restore_blocks(
        uba=[pbn for _, pbn in uba],
        cba=[pbn for _, pbn in cba],
        dba=dba,
        free=sorted(free),
        maps_state={
            "gtd": gtd,
            "full_blocks": mba_full + [pbn for _, pbn in mba_open[:-1]],
            "frontier": mba_open[-1][1] if mba_open else None,
        },
    )
    max_seq = max(max_seq, checkpoint_seq)
    for oobs in block_pages.values():
        for oob in oobs:
            max_seq = max(max_seq, oob.seq)
    ftl._seq.fast_forward(max_seq)
    ftl.stats.recovery_reads += pages_read
    if tracer is not None:
        tracer.pop_cause()
        ftl.attach_tracer(tracer)

    report = RecoveryReport(
        checkpoint_found=state is not None,
        checkpoint_seq=checkpoint_seq,
        pages_read=pages_read,
        blocks_fully_scanned=len(full_scan),
        blocks_probed=blocks_probed,
        umt_entries_rebuilt=len(umt_state),
        latency_us=latency,
    )
    return ftl, report
