"""Application scenario: a log-structured key-value store on flash.

Builds the full stack the paper's introduction motivates: a host
application (here a tiny KV store with an in-RAM index) runs unchanged on
a "normal block device" which is actually LazyFTL hiding NAND's
erase-before-write behaviour.  The store appends records sector by
sector; the FTL absorbs the resulting small-write pattern without merge
operations, and the whole stack survives a simulated power loss.

Run:  python examples/kv_store.py
"""

import random

from repro import FlashGeometry, LazyConfig, LazyFTL, NandFlash, recover
from repro.device import FlashBlockDevice


class TinyKV:
    """Append-only KV store: records go to sectors, the index lives in RAM.

    A real store would persist its index; here we rebuild it by scanning
    the log on open - which doubles as a read-path exercise.
    """

    def __init__(self, device: FlashBlockDevice):
        self.device = device
        self.index = {}          # key -> lba of the latest record
        self.head = 0            # next append position
        self.total_latency_us = 0.0

    def put(self, key, value) -> None:
        if self.head >= self.device.capacity_sectors:
            raise RuntimeError("log full (a real store would compact)")
        record = ("record", key, value)
        self.total_latency_us += self.device.write(self.head, [record])
        self.index[key] = self.head
        self.head += 1

    def get(self, key):
        lba = self.index.get(key)
        if lba is None:
            return None
        sectors, latency = self.device.read(lba, 1)
        self.total_latency_us += latency
        _, _, value = sectors[0]
        return value

    @classmethod
    def open(cls, device: FlashBlockDevice) -> "TinyKV":
        """Rebuild the index by scanning the record log."""
        store = cls(device)
        for lba in range(device.capacity_sectors):
            sector = device.read(lba, 1).data[0]
            if sector is None:
                break
            tag, key, _ = sector
            if tag == "record":
                store.index[key] = lba
                store.head = lba + 1
        return store


def main() -> None:
    flash = NandFlash(FlashGeometry(num_blocks=128, pages_per_block=32,
                                    page_size=2048))
    config = LazyConfig(uba_blocks=6, cba_blocks=3, checkpoint_interval=4000)
    logical = int(flash.geometry.total_pages * 0.75)
    ftl = LazyFTL(flash, logical, config)
    store = TinyKV(FlashBlockDevice(ftl))

    rng = random.Random(7)
    keys = [f"user:{i}" for i in range(500)]
    expected = {}
    for i in range(6000):
        key = rng.choice(keys)
        expected[key] = f"profile-v{i}"
        store.put(key, expected[key])
    print(f"6000 puts over {len(keys)} keys: "
          f"{store.total_latency_us / 6000:.0f} us/op average, "
          f"{ftl.stats.merges_total} merges, "
          f"{ftl.flash.stats.block_erases} erases")

    hits = sum(1 for k in keys if store.get(k) == expected.get(k))
    print(f"read-back: {hits}/{len(keys)} keys correct")

    # Crash the device and reopen the store on the recovered FTL.
    ftl.checkpoint()
    flash.power_off()
    recovered_ftl, report = recover(flash, logical, config)
    reopened = TinyKV.open(FlashBlockDevice(recovered_ftl))
    survived = sum(
        1 for k in keys if reopened.get(k) == expected.get(k)
    )
    print(f"after power loss + recovery ({report.pages_read} pages "
          f"scanned): {survived}/{len(keys)} keys intact")
    assert survived == len(keys)


if __name__ == "__main__":
    main()
