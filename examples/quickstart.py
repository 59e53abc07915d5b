"""Quickstart: build a flash device, run LazyFTL on it, look at the costs.

Run:  python examples/quickstart.py
"""

from repro import FlashGeometry, LazyConfig, LazyFTL, NandFlash


def main() -> None:
    # A small device: 128 blocks x 64 pages x 2 KiB = 16 MiB of raw flash.
    flash = NandFlash(FlashGeometry(num_blocks=128, pages_per_block=64,
                                    page_size=2048))
    # Export 80 % of it as logical space; the rest is overprovisioning.
    ftl = LazyFTL(
        flash,
        logical_pages=int(flash.geometry.total_pages * 0.8),
        config=LazyConfig(uba_blocks=8, cba_blocks=4),
    )

    # --- basic I/O --------------------------------------------------------
    latency = ftl.write(4242, b"hello flash")  # a write returns its latency
    print(f"write lpn 4242 took {latency:.0f} us")
    data, latency = ftl.read(4242)  # a read returns (data, latency_us)
    print(f"read  lpn 4242 -> {data!r} in {latency:.0f} us "
          "(UMT hit: no mapping page read needed)")

    # --- the lazy part ----------------------------------------------------
    # A burst of writes costs one page program each; no mapping I/O yet.
    before = ftl.stats.map_writes
    for lpn in range(1000):
        ftl.write(lpn, lpn)
    print(f"\n1000 writes issued {ftl.stats.map_writes - before} mapping-page"
          f" writes so far (deferred in the UMT: {len(ftl.umt)} entries)")

    # Conversion commits the deferred mappings in batch.
    ftl.flush()
    print(f"after flush: {ftl.stats.map_writes} mapping writes committed "
          f"{ftl.stats.batched_commits} entries "
          f"({ftl.stats.batched_commits / max(1, ftl.stats.map_writes):.1f} "
          "entries per mapping-page write)")

    # --- what the paper eliminates ---------------------------------------
    print(f"\nmerge operations performed: {ftl.stats.merges_total} "
          "(LazyFTL has none, by construction)")
    print(f"RAM used by translation structures: {ftl.ram_bytes() / 1024:.1f}"
          f" KiB for {ftl.logical_pages * 2 / 1024:.0f} MiB of logical space")

    # --- crash safety -----------------------------------------------------
    ftl.checkpoint()
    flash.power_off()
    from repro import recover

    recovered, report = recover(flash, ftl.logical_pages, ftl.config)
    print(f"\nrecovered after power loss: read lpn 4242 -> "
          f"{recovered.read(4242).data!r} "
          f"(scanned {report.blocks_fully_scanned} blocks, "
          f"{report.pages_read} page reads)")


if __name__ == "__main__":
    main()
