"""Full-state mapping audits: the FTL-level half of flashsan.

Where :class:`~repro.checks.flashsan.SanitizedNandFlash` checks each raw
operation as it happens, the auditors here inspect a *quiescent* FTL and
verify the global invariants that back the paper's claims:

* **Ownership** - at most one live logical owner per physical page, and
  every mapping points at a VALID page whose OOB reverse mapping agrees.
* **Counter integrity** - each block's valid count / write pointer match a
  recount of its page states (catches out-of-band stores to the device
  arrays).
* **LazyFTL** - GTD/GMT/UMT mutual consistency, every stale-but-valid page
  is covered by a pending UMT entry (deferred invalidation is *tracked*
  laziness, never a leak), and the zero-merge headline invariant.
* **DFTL** - CMT/translation-page consistency (clean entries mirror flash,
  dirty entries point at live data), GTD/translation-page agreement, and
  the per-translation-page dirty index against the entries' dirty flags.
* **Victim pools** - every GC candidate sits in the bucket of its current
  valid count, unless the device still lists it as invalidated since the
  collector last looked (read, never drained, here).

Audits are side-effect free: they read RAM tables and page state directly
and never issue device operations, so they can run mid-benchmark without
perturbing latencies or statistics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..core.lazyftl import LazyFTL
from ..flash.chip import NandFlash
from ..flash.oob import PageKind
from ..flash.page import FREE, VALID, PageState
from ..ftl.base import FlashTranslationLayer
from ..ftl.dftl import DftlFTL
from ..ftl.gc_policy import GarbageCollector
from ..ftl.mapping import MappingStore
from ..ftl.pure_page import PageFTL
from .report import AuditReport, Violation, ViolationKind


class _Auditor:
    """Shared bookkeeping for one audit pass."""

    def __init__(self, ftl: FlashTranslationLayer):
        self.ftl = ftl
        self.flash: NandFlash = ftl.flash
        self.report = AuditReport(scheme=ftl.name)

    def check(self) -> None:
        self.report.checks_run += 1

    def fail(
        self,
        kind: ViolationKind,
        message: str,
        lpn: Optional[int] = None,
        ppn: Optional[int] = None,
        pbn: Optional[int] = None,
    ) -> None:
        self.report.violations.append(Violation(
            kind=kind, message=message, scheme=self.ftl.name,
            lpn=lpn, ppn=ppn, pbn=pbn,
        ))

    # ------------------------------------------------------------------
    # Generic checks
    # ------------------------------------------------------------------
    def audit_block_counters(self) -> None:
        """Recount page states against each block's cached counters."""
        flash = self.flash
        sequential = flash.enforce_sequential
        ppb = flash.geometry.pages_per_block
        for pbn in range(flash.geometry.num_blocks):
            self.check()
            states = flash.page_states[pbn * ppb:(pbn + 1) * ppb]
            write_ptr = flash.write_ptr[pbn]
            valid = states.count(VALID)
            if valid != flash.valid_count[pbn]:
                self.fail(
                    ViolationKind.COUNTER_DRIFT,
                    f"block {pbn} caches valid_count="
                    f"{flash.valid_count[pbn]} but holds {valid} valid "
                    "page(s)",
                    pbn=pbn,
                )
            programmed = [o for o, st in enumerate(states) if st != FREE]
            if programmed and max(programmed) >= write_ptr:
                self.fail(
                    ViolationKind.COUNTER_DRIFT,
                    f"block {pbn} has a programmed page at offset "
                    f"{max(programmed)} beyond its write pointer "
                    f"{write_ptr}",
                    pbn=pbn,
                )
            if sequential:
                free_below = [
                    o for o in range(write_ptr) if states[o] == FREE
                ]
                if free_below:
                    self.fail(
                        ViolationKind.COUNTER_DRIFT,
                        f"block {pbn} has free page(s) at "
                        f"{free_below[:8]} below the write pointer on a "
                        "sequential-program device",
                        pbn=pbn,
                    )

    def audit_victim_pools(self) -> None:
        """GC's valid-count buckets against the device's counts, its
        seals against the OOB and each cached oldest against its bucket."""
        gc = getattr(self.ftl, "_gc", None)
        if not isinstance(gc, GarbageCollector):
            return
        pools = {"the victim pool": gc.blocks}
        if gc.maps is not None:
            pools["the store's full blocks"] = gc.maps.full_blocks
        flash = self.flash
        ppb, blocks = flash.geometry.pages_per_block, flash.geometry.num_blocks
        for name, pool in pools.items():
            self.check()
            rank = pool._age_rank
            if sorted(pool._bucket_of.items()) != sorted(
                    (pbn, valid) for valid, bucket in enumerate(pool._buckets)
                    for pbn in bucket):
                self.fail(
                    ViolationKind.COUNTER_DRIFT,
                    f"the buckets of {name} disagree with its member table",
                )
            for pbn, valid in pool._bucket_of.items():
                self.check()
                if valid != flash.valid_count[pbn] \
                        and pbn not in flash.invalidated:
                    self.fail(
                        ViolationKind.COUNTER_DRIFT,
                        f"block {pbn} of {name} is bucketed under {valid} "
                        f"valid page(s) but holds {flash.valid_count[pbn]} "
                        "and is not awaiting a refresh - GC would pick by "
                        "a stale count",
                        pbn=pbn,
                    )
                last = pbn * ppb + max(flash.write_ptr[pbn] - 1, 0)
                if rank.get(pbn) != flash.oob_seq[last] * blocks + pbn:
                    self.fail(
                        ViolationKind.COUNTER_DRIFT,
                        f"block {pbn} of {name} is not sealed at seq "
                        f"{flash.oob_seq[last]}, its last page's - GC "
                        "would age it wrongly", pbn=pbn)
            for valid, oldest in enumerate(pool._oldest):
                if oldest is not None and oldest != min(
                        pool._buckets[valid], default=None,
                        key=lambda pbn: rank.get(pbn, -1)):
                    self.fail(
                        ViolationKind.COUNTER_DRIFT,
                        f"block {oldest} is cached as the oldest of {name} "
                        f"at {valid} valid but is not", pbn=oldest)

    def _valid_data_pages(self):
        """``(ppn, oob)`` of every VALID page whose OOB marks it DATA."""
        flash = self.flash
        kinds = flash.oob_kind
        for ppn, state in enumerate(flash.page_states):
            if state == VALID and kinds[ppn] == PageKind.DATA:
                yield ppn, flash.oob(ppn)

    def audit_oob_reverse_mappings(self) -> None:
        """Every valid data page's OOB lpn must be inside logical space."""
        logical = self.ftl.logical_pages
        ppb = self.flash.geometry.pages_per_block
        for ppn, oob in self._valid_data_pages():
            self.check()
            if not 0 <= oob.lpn < logical:
                pbn, offset = divmod(ppn, ppb)
                self.fail(
                    ViolationKind.OOB_MISMATCH,
                    f"valid data page (block {pbn}, offset "
                    f"{offset}) claims out-of-range lpn {oob.lpn}",
                    pbn=pbn, lpn=oob.lpn,
                )

    def valid_data_owners(self) -> Dict[int, List[int]]:
        """lpn -> ppns of all VALID data pages claiming it (via OOB)."""
        owners: Dict[int, List[int]] = {}
        for ppn, oob in self._valid_data_pages():
            owners.setdefault(oob.lpn, []).append(ppn)
        return owners

    def audit_unique_ownership(self) -> None:
        """Eager-invalidation schemes: one valid copy per logical page."""
        for lpn, ppns in sorted(self.valid_data_owners().items()):
            self.check()
            if len(ppns) > 1:
                self.fail(
                    ViolationKind.MULTI_OWNER,
                    f"lpn {lpn} has {len(ppns)} valid physical copies "
                    f"(ppns {sorted(ppns)[:8]}); stale copies were never "
                    "invalidated",
                    lpn=lpn,
                )

    def check_data_page(self, lpn: int, ppn: int, source: str) -> bool:
        """A mapping entry must point at a VALID data page owning ``lpn``."""
        self.check()
        pbn = self.flash.geometry.block_of(ppn)
        state = self.flash.page_states[ppn]
        oob = self.flash.oob(ppn)
        if state != VALID:
            self.fail(
                ViolationKind.DANGLING_MAPPING,
                f"{source} maps lpn {lpn} to ppn {ppn} whose page is "
                f"{PageState(state).name.lower()}",
                lpn=lpn, ppn=ppn, pbn=pbn,
            )
            return False
        if oob is None or oob.kind is not PageKind.DATA:
            self.fail(
                ViolationKind.DANGLING_MAPPING,
                f"{source} maps lpn {lpn} to ppn {ppn} which is not a "
                "data page",
                lpn=lpn, ppn=ppn, pbn=pbn,
            )
            return False
        if oob.lpn != lpn:
            self.fail(
                ViolationKind.OOB_MISMATCH,
                f"{source} maps lpn {lpn} to ppn {ppn} but the page's OOB "
                f"claims lpn {oob.lpn}",
                lpn=lpn, ppn=ppn, pbn=pbn,
            )
            return False
        return True

    def check_mapping_page(self, tvpn: int, tppn: int, source: str) -> bool:
        """A directory entry must point at a VALID mapping page."""
        self.check()
        pbn = self.flash.geometry.block_of(tppn)
        state_code = self.flash.page_states[tppn]
        oob = self.flash.oob(tppn)
        if state_code != VALID or oob is None \
                or oob.kind is not PageKind.MAPPING:
            state = PageState(state_code).name.lower()
            if oob is not None:
                state = f"{state} {oob.kind.name.lower()}"
            self.fail(
                ViolationKind.GMT_INCONSISTENT,
                f"{source} locates translation page {tvpn} at ppn {tppn} "
                f"which is a {state} page",
                lpn=tvpn, ppn=tppn, pbn=pbn,
            )
            return False
        if oob.lpn != tvpn:
            self.fail(
                ViolationKind.GMT_INCONSISTENT,
                f"{source} locates translation page {tvpn} at ppn {tppn} "
                f"whose OOB claims tvpn {oob.lpn}",
                lpn=tvpn, ppn=tppn, pbn=pbn,
            )
            return False
        return True

    def page_content(self, ppn: int) -> Any:
        """Raw page payload, bypassing the device (audit is free)."""
        self.flash.geometry.check_ppn(ppn)
        return self.flash.page_data[ppn]


def _audit_flash_map(
    a: _Auditor,
    maps: MappingStore,
    resolved: Dict[int, Optional[int]],
    source: str,
) -> Dict[int, int]:
    """The flash-resident page table, audited the way a read resolves it.

    ``resolved`` arrives holding the scheme's RAM-side entries (UMT / CMT),
    which win over flash, and leaves holding every logical page's mapping.
    Returns the live translation pages, tvpn -> ppn.
    """
    logical_pages = a.ftl.logical_pages
    entries_per_page = maps.entries_per_page
    # Directory entries locate live mapping pages whose OOB names them
    # back.
    pages: Dict[int, int] = {}
    for tvpn, tppn in maps.gtd.items():
        if a.check_mapping_page(tvpn, tppn, "GTD"):
            pages[tvpn] = tppn
    # Every logical page without a RAM-side entry resolves through them;
    # committed mappings must be exact.
    for tvpn, tppn in pages.items():
        base = tvpn * entries_per_page
        for idx, ppn in enumerate(a.page_content(tppn)):
            lpn = base + idx
            if ppn < 0 or lpn >= logical_pages or lpn in resolved:
                continue
            if a.check_data_page(lpn, ppn, f"{source} {tvpn}"):
                resolved[lpn] = ppn
    # Ownership: no physical page serves two logical pages.
    by_ppn: Dict[int, List[int]] = {}
    for lpn, ppn in resolved.items():
        if ppn is not None:
            by_ppn.setdefault(ppn, []).append(lpn)
    for ppn, lpns in sorted(by_ppn.items()):
        a.check()
        if len(lpns) > 1:
            a.fail(
                ViolationKind.MULTI_OWNER,
                f"physical page {ppn} is the mapped target of "
                f"{len(lpns)} logical pages ({sorted(lpns)[:8]})",
                ppn=ppn,
            )
    return pages


def _audit_lazyftl(a: _Auditor, ftl: LazyFTL) -> None:
    """GTD/GMT/UMT mutual consistency + the zero-merge invariant."""
    # 1. The headline claim: LazyFTL never merges.
    a.check()
    if ftl.stats.merges_total != 0:
        a.fail(
            ViolationKind.LAZY_MERGE,
            f"LazyFTL recorded {ftl.stats.merges_total} merge operation(s);"
            " the paper's zero-merge invariant is broken",
        )
    staging = set(ftl.uba_blocks) | set(ftl.cba_blocks)
    # 2. Every UMT entry points at a live data page inside the UBA/CBA.
    resolved: Dict[int, Optional[int]] = {}
    for lpn, ppn in ftl.umt.items():
        if a.check_data_page(lpn, ppn, "UMT"):
            pbn, _ = a.flash.geometry.split_ppn(ppn)
            a.check()
            if pbn not in staging:
                a.fail(
                    ViolationKind.UMT_INCONSISTENT,
                    f"UMT entry for lpn {lpn} points into block {pbn} "
                    "which is in neither the update nor the cold area "
                    "(deferred entries must live in UBA/CBA)",
                    lpn=lpn, ppn=ppn, pbn=pbn,
                )
        resolved[lpn] = ppn
    # 3. The GMT under them (a GMT value the UMT supersedes is
    #    deliberately stale), and unique ownership of the result.
    _audit_flash_map(a, ftl.mapping_store, resolved, "GMT page")
    # 4. Laziness is tracked, never leaked: a valid data page that is not
    #    the resolved copy of its lpn must have a pending UMT entry that
    #    supersedes it (it will be invalidated at commit time).
    for lpn, ppns in sorted(a.valid_data_owners().items()):
        for ppn in ppns:
            a.check()
            if resolved.get(lpn) == ppn:
                continue
            if ftl.umt.get(lpn) is None:
                a.fail(
                    ViolationKind.GMT_INCONSISTENT,
                    f"valid data page at ppn {ppn} holds lpn {lpn} but is "
                    "neither the mapped copy nor superseded by a pending "
                    "UMT entry - deferred invalidation leaked it",
                    lpn=lpn, ppn=ppn,
                )


def _audit_dftl(a: _Auditor, ftl: DftlFTL) -> None:
    """CMT/translation-page consistency and GTD agreement."""
    maps = ftl._maps
    # 1. The translation pages, with the CMT winning over them.
    resolved = {lpn: entry.ppn for lpn, entry in ftl._cmt.items()}
    tpages = _audit_flash_map(a, maps, resolved, "translation page")
    # 2. CMT entries: clean ones mirror flash, dirty ones point at live
    #    data that flash has not caught up with yet.
    for lpn, entry in ftl._cmt.items():
        if entry.ppn is not None:
            a.check_data_page(lpn, entry.ppn, "CMT")
        if not entry.dirty:
            a.check()
            tvpn, idx = divmod(lpn, maps.entries_per_page)
            tppn = tpages.get(tvpn)
            flash_ppn: Optional[int] = None
            if tppn is not None:
                flash_ppn = a.page_content(tppn)[idx]
                if flash_ppn < 0:  # UNMAPPED
                    flash_ppn = None
            if flash_ppn != entry.ppn:
                a.fail(
                    ViolationKind.CMT_INCONSISTENT,
                    f"clean CMT entry for lpn {lpn} holds ppn {entry.ppn} "
                    f"but translation page {tvpn} holds {flash_ppn}",
                    lpn=lpn, ppn=entry.ppn,
                )
    # 3. The dirty index is the dirty flags, grouped by translation page.
    dirty: Dict[int, Set[int]] = {}
    for lpn, entry in ftl._cmt.items():
        if entry.dirty:
            dirty.setdefault(maps.tvpn_of(lpn), set()).add(lpn)
    indexed = ftl._dirty.pages
    for tvpn in sorted(dirty.keys() | indexed.keys()):
        a.check()
        flagged, listed = dirty.get(tvpn, set()), indexed.get(tvpn, set())
        if flagged != listed:
            a.fail(
                ViolationKind.CMT_INCONSISTENT,
                f"dirty index of translation page {tvpn} lists lpns "
                f"{sorted(listed)[:8]} but the dirty CMT entries are "
                f"{sorted(flagged)[:8]} (a flush would write back the "
                "listed ones only)",
                lpn=min(flagged ^ listed),
            )


def audit_ftl(ftl: FlashTranslationLayer) -> AuditReport:
    """Audit a quiescent FTL; returns the structured report.

    Generic invariants run for every scheme; LazyFTL, DFTL and the ideal
    scheme additionally have their page maps checked against flash.
    Schemes with eager invalidation (everything except LazyFTL) are held
    to the strict one-valid-copy-per-lpn rule.
    """
    auditor = _Auditor(ftl)
    auditor.audit_block_counters()
    auditor.audit_victim_pools()
    auditor.audit_oob_reverse_mappings()
    if isinstance(ftl, LazyFTL):
        _audit_lazyftl(auditor, ftl)
    else:
        auditor.audit_unique_ownership()
        if isinstance(ftl, DftlFTL):
            _audit_dftl(auditor, ftl)
        elif isinstance(ftl, PageFTL):
            for lpn, ppn in ftl._map.items():
                auditor.check_data_page(lpn, ppn, "the RAM map")
    return auditor.report
