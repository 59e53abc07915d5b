"""A request is a run - and a run is the page loop, less the re-reads.

``FlashTranslationLayer.read_run`` / ``write_run`` are by contract the
scalar op once per page, in order; LazyFTL inherits ``write_run`` and
overrides ``read_run`` with one stated exception: a GMT page fetched for
one page of a read run is not fetched again while the lpns that follow
stay inside it.  Four claims:

* *differential* - on twin devices, one driven through the run ops and
  one through the base class's page loop, random mixed 1-16-page requests
  return the same data and end in the same state; the statistics differ
  in ``map_reads`` / ``page_reads`` / ``read_us`` only, by exactly the
  lookups the page loop repeats - on the plain device, one that refuses
  runs, traced, sanitized and striped over four channels;
* *counting* - the GMT reads of one request, spelled out;
* *traced == untraced* - the simulator's request service is equal bit
  for bit with and without a tracer, and the trace is schema-clean;
* *both drivers* - the sector block device and the simulator charge the
  same span the same.
"""

import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks import SanitizedFTL, SanitizedNandFlash
from repro.core import LazyConfig, LazyFTL
from repro.device import FlashBlockDevice
from repro.flash import SLC_TIMING, FlashGeometry, NandFlash
from repro.ftl.base import FlashTranslationLayer
from repro.obs import JsonlSink, OpLatencyRecorder, Tracer
from repro.sim.simulator import Simulator
from repro.traces import IORequest, OpType, Trace

from .test_relocate_by_run import GEOMETRY, LOGICAL, full_image

TOOL = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "tools" / "check_trace_schema.py"
)
ENTRIES = GEOMETRY.map_entries_per_page  # 16: a 16-page run spans 2 tvpns
READ_US = SLC_TIMING.page_read_us
CONFIG = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3)

#: The engine configurations the reuse rule must be the same in.
HOWS = ("plain", "runs-refused", "traced", "sanitized", "4x1x1")


def build(how="plain", config=CONFIG):
    """``(ftl, host, begin_page)``: the scheme, what the host talks to
    (the sanitizer wrapper when there is one) and the driver's per-page
    duty on this device."""
    geometry = GEOMETRY
    if how == "4x1x1":
        geometry = FlashGeometry(
            num_blocks=GEOMETRY.num_blocks,
            pages_per_block=GEOMETRY.pages_per_block,
            page_size=GEOMETRY.page_size, channels=4)
    flash_cls = SanitizedNandFlash if how == "sanitized" else NandFlash
    flash = flash_cls(geometry, SLC_TIMING)
    if how == "runs-refused":
        flash.fault.arm_after_programs(10 ** 12)  # never trips
    ftl = LazyFTL(flash, LOGICAL, config)
    if how == "traced":
        ftl.attach_tracer(Tracer())
    host = SanitizedFTL(ftl) if how == "sanitized" else ftl
    return ftl, host, flash.begin_host_op if how == "4x1x1" else None


def page_loop(host, is_write, lpn, pages, begin_page):
    """The request through the base class's run op: the scalar op once
    per page (on the sanitizer wrapper, its own scalar ops)."""
    if isinstance(host, SanitizedFTL):
        total, datas = 0.0, []
        for page in range(lpn, lpn + (len(pages) if is_write else pages)):
            data, latency = (None, host.write(page, pages[page - lpn])) \
                if is_write else host.read(page)
            total += latency
            datas.append(data)
        return total, None if is_write else datas
    if is_write:
        return FlashTranslationLayer.write_run(
            host, lpn, pages, begin_page), None
    datas, total = FlashTranslationLayer.read_run(host, lpn, pages,
                                                  begin_page)
    return total, datas


def repeated_lookups(ftl, lpn, n):
    """How many GMT reads the page loop is about to make for this read
    request that a held page saves: the test's own statement of the rule,
    probed on the state the request will find."""
    umt = ftl.umt
    gtd = ftl.mapping_store.gtd.raw
    held = -1
    saved = 0
    for page in range(lpn, lpn + n):
        if umt.ppn_at(page) >= 0:
            continue
        tvpn = page // ENTRIES
        if tvpn == held:
            saved += gtd[tvpn] >= 0
        held = tvpn
    return saved


def mixed_requests(seed, count=260):
    """``(is_write, lpn, n)``: a fill, then skewed 1-16-page requests."""
    rng = random.Random(seed)
    requests = [(True, lpn, min(8, LOGICAL - lpn))
                for lpn in range(0, LOGICAL, 8) if rng.random() < 0.9]
    for _ in range(count):
        n = rng.randint(1, 16)
        hot = rng.random() < 0.7
        lpn = rng.randrange(LOGICAL // 4) if hot else rng.randrange(LOGICAL)
        requests.append((rng.random() < 0.6, lpn, min(n, LOGICAL - lpn)))
    return requests


@pytest.mark.parametrize("how", HOWS)
class TestRunOpsAreThePageLoop:
    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           checkpoint=st.sampled_from((0, 37)))
    def test_twin_devices_agree(self, how, seed, checkpoint):
        config = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3,
                            checkpoint_interval=checkpoint)
        by_run, run_host, begin_page = build(how, config)
        by_page, page_host, begin_twin = build(how, config)
        saved = 0
        version = 0
        for is_write, lpn, n in mixed_requests(seed):
            if is_write:
                datas = [(page, version) for page in range(lpn, lpn + n)]
                version += 1
                got = run_host.write_run(lpn, datas, begin_page)
                want_us, _ = page_loop(page_host, True, lpn, datas,
                                       begin_twin)
                assert got == want_us
                continue
            saves = repeated_lookups(by_page, lpn, n)
            saved += saves
            got = run_host.read_run(lpn, n, begin_page)
            want_us, want = page_loop(page_host, False, lpn, n, begin_twin)
            assert got.data == want
            if how == "4x1x1":
                # A saved GMT read may have overlapped its data read.
                assert got.latency_us <= want_us
            else:
                assert got.latency_us == want_us - saves * READ_US
        assert by_run.stats.gc_runs > 0 and saved > 0
        run_image, page_image = full_image(by_run), full_image(by_page)
        page_image["ftl_stats"]["map_reads"] -= saved
        page_image["flash_stats"]["page_reads"] -= saved
        page_image["flash_stats"]["read_us"] -= saved * READ_US
        for key, want in page_image.items():
            assert run_image[key] == want, key
        if how == "sanitized":
            run_host.assert_clean()

    def test_a_run_leaving_the_logical_space_raises_at_that_page(self, how):
        ftl, host, begin_page = build(how)
        host.write_run(LOGICAL - 4, list("abcd"), begin_page)
        for run in (lambda: host.read_run(LOGICAL - 2, 3, begin_page),
                    lambda: host.write_run(LOGICAL - 2, list("xyz"),
                                           begin_page),
                    lambda: host.read_run(-1, 2, begin_page)):
            with pytest.raises(ValueError, match="outside logical space"):
                run()
        # A run that starts outside names its first page, as the loop does.
        with pytest.raises(ValueError, match=f"lpn {LOGICAL + 5} outside"):
            host.read_run(LOGICAL + 5, 2, begin_page)
        # Every page before the one outside was served, as the loop would.
        assert ftl.stats.host_reads == 2
        assert ftl.stats.host_writes == 4 + 2
        assert host.read_run(LOGICAL - 4, 4, begin_page).data == \
            ["a", "b", "x", "y"]


class TestGmtReadsOfOneRequest:
    """16 map entries per translation page; everything committed."""

    @staticmethod
    def committed(how="plain"):
        ftl, _, _ = build(how)
        ftl.write_run(0, [("v", lpn) for lpn in range(64)])
        ftl.flush()  # the UMT is empty, the GMT exact
        assert len(ftl.umt) == 0
        return ftl

    @pytest.mark.parametrize("how", ("plain", "runs-refused", "traced"))
    def test_one_gmt_read_per_translation_page(self, how):
        ftl = self.committed(how)
        before = ftl.stats.map_reads
        result = ftl.read_run(8, 16)  # lpns 8..23: tvpn 0, then tvpn 1
        assert ftl.stats.map_reads - before == 2
        assert result.latency_us == (2 + 16) * READ_US
        assert result.data == [("v", lpn) for lpn in range(8, 24)]
        assert ftl.read_run(16, 16).latency_us == (1 + 16) * READ_US

    def test_the_held_page_is_dropped_at_the_end_of_the_request(self):
        ftl = self.committed()
        before = ftl.stats.map_reads
        ftl.read_run(0, 4)
        ftl.read_run(4, 4)  # same translation page, a new request
        assert ftl.stats.map_reads - before == 2
        assert ftl.ram_bytes() == ftl.umt.ram_bytes() + \
            ftl.mapping_store.ram_bytes()  # a register, not modelled RAM

    def test_umt_hits_and_never_written_pages_read_no_gmt_page(self):
        ftl, _, _ = build()
        ftl.write_run(0, list("abcd"))  # in the UMT, nothing committed
        before = ftl.stats.map_reads
        result = ftl.read_run(0, 8)  # 4 UMT hits, 4 never written
        assert ftl.stats.map_reads == before
        assert result.data == ["a", "b", "c", "d", None, None, None, None]
        assert result.latency_us == 4 * READ_US

    def test_a_umt_hit_does_not_drop_the_held_page(self):
        ftl = self.committed()
        ftl.write(2, "new")  # lpn 2 now answers from the UMT
        before = ftl.stats.map_reads
        assert ftl.read_run(0, 5).data[2] == "new"
        assert ftl.stats.map_reads - before == 1


def multipage_trace(requests=300, seed=3):
    rng = random.Random(seed)
    return Trace([
        IORequest(
            op=OpType.WRITE if rng.random() < 0.3 else OpType.READ,
            lpn=rng.randrange(LOGICAL - 16),
            npages=rng.randint(1, 16),
        ) for _ in range(requests)
    ], name="multipage")


@pytest.mark.parametrize("how", ("plain", "4x1x1"))
def test_traced_and_untraced_service_agree_bit_for_bit(how, tmp_path):
    fill = Trace([IORequest(op=OpType.WRITE, lpn=lpn, npages=8)
                  for lpn in range(0, LOGICAL, 8)], name="fill")
    trace = multipage_trace()
    path = tmp_path / "trace.jsonl"
    runs = []
    for traced in (False, True):
        ftl, _, _ = build(how)
        tracer = Tracer(sinks=[JsonlSink(str(path))],
                        latency=OpLatencyRecorder()) if traced else None
        result = Simulator(ftl, tracer=tracer).run(trace, warmup=fill)
        if tracer is not None:
            tracer.close()
        runs.append((result.responses.summary(), result.device_busy_us,
                     result.flash.as_dict(), result.ftl_stats.as_dict()))
    assert runs[0] == runs[1]
    proc = subprocess.run([sys.executable, TOOL, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Every page of every request left its host event; the reused
    # lookups left no MAP_READ.
    events = path.read_text().splitlines()
    hosts = sum('"HostRead"' in e or '"HostWrite"' in e for e in events)
    assert hosts == trace.page_ops
    assert sum('"MapRead"' in e and '"mapping"' in e for e in events) \
        < result.ftl_stats.host_reads / 2


@pytest.mark.parametrize("how", ("plain", "4x1x1"))
def test_block_device_and_simulator_charge_a_span_the_same(how):
    """A 10-sector read at sector 5 (4 sectors per page here: lpns 1..3)
    and a 13-sector write (a partial head, two whole pages, a partial
    tail) cost what the simulator charges the same page requests."""
    geometry = FlashGeometry(num_blocks=64, pages_per_block=16,
                             page_size=2048)
    latencies = []
    for driver in ("blockdev", "simulator"):
        flash = NandFlash(geometry if how == "plain" else FlashGeometry(
            num_blocks=64, pages_per_block=16, page_size=2048, channels=4),
            SLC_TIMING)
        ftl = LazyFTL(flash, 600, CONFIG)
        ftl.write_run(0, [[lpn] * 4 for lpn in range(600)])
        ftl.flush()
        if driver == "blockdev":
            device = FlashBlockDevice(ftl)
            read = device.read(5, 10)
            assert read.data == [1] * 3 + [2] * 4 + [3] * 3
            write_us = device.write(6, list(range(13)))
            assert device.rmw_count == 2
            assert device.read(4, 16).data == [1, 1, *range(13), 4]
            latencies.append((read.latency_us, write_us))
            continue

        def service(*requests):
            result = Simulator(ftl).run(Trace([
                IORequest(op=op, lpn=lpn, npages=n)
                for op, lpn, n in requests]), reset_counters=True)
            return result.device_busy_us

        latencies.append((
            service((OpType.READ, 1, 3)),
            service((OpType.READ, 1, 1), (OpType.WRITE, 1, 1),
                    (OpType.WRITE, 2, 2),
                    (OpType.READ, 4, 1), (OpType.WRITE, 4, 1)),
        ))
    assert latencies[0] == latencies[1]
    assert latencies[0][0] == (1 + 3) * READ_US or how == "4x1x1"
