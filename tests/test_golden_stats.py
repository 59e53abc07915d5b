"""Golden-stats regression gate: the engine's modeled statistics are
bit-identical to the committed pre-overhaul snapshot.

Engine restructurings (array-backed maps, flat array-backed flash state
with one implementation per raw op) are pure host-side changes: every
simulated number - erases, merges, GC copies, response-time
distributions, RAM model, device-busy time - must come out exactly as the
seed engine produced it.  ``tests/golden/engine_stats.json`` was captured
with ``tools/gen_golden_stats.py``; this test replays the same golden
workload live and compares digest-by-digest with plain ``==`` (floats
survive the JSON round-trip losslessly, so this is a bit-exact check).

If a *behavioural* change is ever intended (new scheme semantics, a
timing-model fix), regenerate the snapshot with
``PYTHONPATH=src python tools/gen_golden_stats.py`` and explain the diff
in the commit message.
"""

import json
import pathlib

import pytest

from repro.obs import OpLatencyRecorder, Tracer
from repro.sim.factory import SCHEMES
from repro.sim.golden import (
    GOLDEN_DEVICE,
    GOLDEN_DEVICE_4CH,
    LOG_BLOCK_SCHEMES,
    STRIPED_SCHEMES,
    collect_golden_digests,
    collect_trace_digests,
    engine_digest,
    golden_merges_trace,
    golden_multipage_trace,
    golden_traces,
    merges_digest,
)
from repro.sim.runner import run_scheme

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden" / "engine_stats.json"
)
GOLDEN_4CH_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden"
    / "engine_stats_4ch.json"
)
GOLDEN_MULTIPAGE_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden"
    / "engine_stats_multipage.json"
)
GOLDEN_MERGES_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden"
    / "engine_stats_merges.json"
)
TRACE_DIGESTS_PATH = (
    pathlib.Path(__file__).resolve().parent / "golden" / "trace_digests.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_4ch():
    return json.loads(GOLDEN_4CH_PATH.read_text())


@pytest.fixture(scope="module")
def golden_multipage():
    return json.loads(GOLDEN_MULTIPAGE_PATH.read_text())


@pytest.fixture(scope="module")
def golden_merges():
    return json.loads(GOLDEN_MERGES_PATH.read_text())


def test_snapshot_covers_every_scheme_and_trace(golden):
    expected = {
        f"{scheme}/{trace.name}"
        for trace in golden_traces()
        for scheme in SCHEMES
    }
    assert set(golden) == expected


#: The gate runs once per way the one replay loop can be driven: forced
#: scalar, the batch engine as it runs by default (every horizon it
#: walks served as an epoch), traced with a latency recorder attached,
#: and sanitized - all four must reproduce the committed snapshot bit
#: for bit.  Under
#: ``sanitized`` the batch engine declines, the device refuses runs
#: (``takes_runs()`` is False, so GC, commits and host run ops move one
#: page at a time), every raw op is audited, every read is checked by
#: content and ``assert_clean()`` audits the end state: the snapshot then
#: also pins runs allowed == one-page runs, and that flashsan changes no
#: statistic.
REPLAY_GATES = ("scalar", "batched", "traced", "sanitized")


def recording_tracer():
    return Tracer(latency=OpLatencyRecorder())


def replay_digest(scheme, trace, device, gate):
    """:func:`engine_digest` of one steady-state replay driven as
    ``gate`` says."""
    return engine_digest(run_scheme(
        scheme, trace, device=device, precondition="steady",
        replay_mode="scalar" if gate == "scalar" else "auto",
        tracer=recording_tracer() if gate == "traced" else None,
        sanitize=gate == "sanitized",
    ))


@pytest.mark.parametrize("gate", REPLAY_GATES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_stats_bit_identical(golden, scheme, gate):
    """Each scheme's digests match the snapshot exactly, per trace."""
    for trace in golden_traces():
        key = f"{scheme}/{trace.name}"
        live = replay_digest(scheme, trace, GOLDEN_DEVICE, gate)
        assert live == golden[key], (
            f"{key} [{gate}]: engine statistics drifted from the "
            "golden snapshot - a hot-path change altered modeled "
            "behaviour"
        )


def test_4ch_snapshot_covers_every_striped_scheme(golden_4ch):
    expected = {
        f"{scheme}/{trace.name}"
        for trace in golden_traces()
        for scheme in STRIPED_SCHEMES
    }
    assert set(golden_4ch) == expected


@pytest.mark.parametrize("scheme", STRIPED_SCHEMES)
def test_4ch_scheme_stats_bit_identical(golden, golden_4ch, scheme):
    """Striped-scheme digests on the 4-channel device match the snapshot.

    Only the scalar replay loop runs here: multi-unit geometries
    disqualify the batch engine (striped frontiers rotate between
    blocks an epoch models as one).  Untraced and traced, GC
    relocation and GMT commits move by run over the striped rotation;
    sanitized, page by page - all three must match the one snapshot.
    Each digest is also cross-checked against the serial snapshot:
    strictly less device-busy time - the whole point of the channels.
    """
    for trace in golden_traces():
        key = f"{scheme}/{trace.name}"
        for gate in ("batched", "traced", "sanitized"):
            live = replay_digest(scheme, trace, GOLDEN_DEVICE_4CH, gate)
            assert live == golden_4ch[key], (
                f"{key} [4ch, {gate}]: engine statistics drifted from the "
                "4-channel golden snapshot - a change altered striped "
                "placement or overlap timing"
            )
        assert live["device_busy_us"] < golden[key]["device_busy_us"]


def test_multipage_snapshot_covers_both_devices(golden_multipage):
    trace = golden_multipage_trace()
    assert set(golden_multipage) == {
        f"{scheme}/{trace.name}@{device}"
        for scheme in STRIPED_SCHEMES for device in ("1x1x1", "4x1x1")
    }
    npages = trace.npages  # (clipped at the footprint's end)
    assert sum(n >= 4 for n in npages) >= 0.99 * len(npages)


@pytest.mark.parametrize("gate", REPLAY_GATES)
@pytest.mark.parametrize("scheme", STRIPED_SCHEMES)
def test_multipage_stats_bit_identical(golden_multipage, scheme, gate):
    """Multi-page requests are host run ops: the same digest from every
    way the one loop can be driven (LazyFTL's one GMT read per request
    and translation page included), serial and on four channels (where
    the batch engine declines, so its gate replays scalar).  Under
    ``sanitized`` each host run op meets a device that refuses runs."""
    trace = golden_multipage_trace()
    for device, label in ((GOLDEN_DEVICE, "1x1x1"),
                          (GOLDEN_DEVICE_4CH, "4x1x1")):
        live = replay_digest(scheme, trace, device, gate)
        assert live == golden_multipage[
            f"{scheme}/{trace.name}@{label}"], f"{label} [{gate}]"


def test_lazyftl_reads_one_gmt_page_per_request_and_page(golden_multipage):
    """What the multi-page snapshot is there to pin: far fewer GMT reads
    than host page reads (128 entries per translation page here), at the
    same GC, conversion and erase counts the page loop gave."""
    lazy = golden_multipage["LazyFTL/golden-multipage@1x1x1"]
    assert lazy["ftl"]["map_reads"] < lazy["ftl"]["host_reads"] / 4
    dftl = golden_multipage["DFTL/golden-multipage@1x1x1"]
    assert dftl["ftl"]["host_reads"] == lazy["ftl"]["host_reads"]


def test_merges_snapshot_reaches_every_merge_kind(golden, golden_merges):
    """What the merge snapshot is there to pin: the switch path - which no
    entry of the serial snapshot ever takes - the partial path and full
    merges, for both merging schemes; superblock's in-group clean."""
    name = golden_merges_trace().name
    assert set(golden_merges) == {f"{s}/{name}" for s in LOG_BLOCK_SCHEMES}
    assert all(d["ftl"]["merges_switch"] == 0 for d in golden.values())
    for scheme in ("BAST", "FAST"):
        ftl = golden_merges[f"{scheme}/{name}"]["ftl"]
        assert ftl["merges_switch"] > 0 and ftl["merges_partial"] > 0 \
            and ftl["merges_full"] > 0
    assert golden_merges[f"superblock/{name}"]["ftl"]["gc_page_copies"] > 0


@pytest.mark.parametrize("gate", REPLAY_GATES)
@pytest.mark.parametrize("scheme", LOG_BLOCK_SCHEMES)
def test_merges_stats_bit_identical(golden_merges, scheme, gate):
    """The log-block schemes over the merge trace: untraced through the
    other three replay gates the statistics equal the snapshot's engine
    half; traced (a latency recorder attached beside the hashing sink)
    the event-stream hash - every ``MergeStart`` / ``MergeEnd`` and the
    addresses between them - equals it too."""
    trace = golden_merges_trace()
    committed = golden_merges[f"{scheme}/{trace.name}"]
    if gate == "traced":
        live = merges_digest(scheme, latency=OpLatencyRecorder())
    else:
        live = replay_digest(scheme, trace, GOLDEN_DEVICE, gate)
        assert live.keys() == committed.keys() - {
            "events", "events_sha256"}
        committed = {field: committed[field] for field in live}
    assert live == committed, f"{scheme} [{gate}]"


def test_trace_digests_unchanged():
    """Every generator, parser, join, slice and save/load round trip still
    yields the committed columns, byte for byte."""
    assert collect_trace_digests() == \
        json.loads(TRACE_DIGESTS_PATH.read_text())


def test_collector_key_shape(golden):
    """The bulk collector used by the regen tool emits the same keys.

    (Digest equality is covered per scheme above; rerunning the whole
    workload a second time here would only double the suite's cost.)
    """
    sample = collect_golden_digests(schemes=("ideal",))
    assert set(sample) <= set(golden)
    for key, digest in sample.items():
        assert digest == golden[key]


_COLLECT_ALL = """
import json, sys
from repro.sim.golden import (
    collect_golden_digests, collect_golden_digests_4ch,
    collect_golden_digests_merges, collect_golden_digests_multipage)
json.dump([collect_golden_digests(), collect_golden_digests_4ch(),
           collect_golden_digests_multipage(),
           collect_golden_digests_merges()], sys.stdout)
"""


@pytest.mark.parametrize("hash_seed", ("1", "4242"))
def test_snapshots_reproduce_under_any_hash_seed(golden, golden_4ch,
                                                 golden_multipage,
                                                 golden_merges, hash_seed,
                                                 json_under_hash_seed):
    """All committed files, regenerated in a fresh interpreter under a
    pinned ``PYTHONHASHSEED``, twice: a statistic that depends on set or
    dict-of-str iteration order cannot equal one snapshot under both
    seeds.  This is the exact, run-time form of the deleted lint rule
    FTL012 (docs/INTERNALS.md, "The hazard ledger")."""
    assert json_under_hash_seed(hash_seed, "-c", _COLLECT_ALL) == \
        [golden, golden_4ch, golden_multipage, golden_merges]
