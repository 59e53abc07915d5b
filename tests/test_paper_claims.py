"""The paper's claims, read from the committed golden snapshots.

Runs nothing: each claim is checked on every entry of
``engine_stats.json`` (serial, single-page traces, all six schemes),
``engine_stats_4ch.json`` (the same traces on four channels, striping
schemes) and ``engine_stats_multipage.json`` (multi-page requests, serial
and four channels).  A regeneration of the snapshots that breaks a claim
fails here by name:

* LazyFTL, DFTL and ideal never merge ("no merges, ever");
* on both single-page traces mean response orders LazyFTL < DFTL < FAST
  < BAST (of the schemes a file holds);
* LazyFTL's mean response is within 1.35x of ideal's ("very close to the
  theoretically optimal solution"; at most 1.31x today, golden-random);
* LazyFTL erases fewer blocks than DFTL;
* LazyFTL beats superblock, the strongest non-page-mapping scheme on
  golden-random, on mean response and on erases ("outperforms all the
  typical existing FTL schemes"; 598 vs 1064 us and 179 vs 315 erases
  there today).
"""

import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FILES = ("engine_stats", "engine_stats_4ch", "engine_stats_multipage")
SINGLE_PAGE_FILES = ("engine_stats", "engine_stats_4ch")
#: Mean-response order on the single-page traces, best first.
ORDER = ("LazyFTL", "DFTL", "FAST", "BAST")
NO_MERGE_SCHEMES = ("LazyFTL", "DFTL", "ideal")
MAX_RATIO_TO_IDEAL = 1.35

SNAPSHOTS = {name: json.loads((GOLDEN / f"{name}.json").read_text())
             for name in FILES}


def runs(files):
    """``(file, trace label, {scheme: entry})`` for every trace of each
    file; a label is the key after the scheme (``golden-random``,
    ``golden-multipage@4x1x1``)."""
    for name in files:
        by_trace = {}
        for key, entry in SNAPSHOTS[name].items():
            scheme, _, label = key.partition("/")
            by_trace.setdefault(label, {})[scheme] = entry
        for label, schemes in sorted(by_trace.items()):
            yield pytest.param(schemes, id=f"{name}:{label}")


def mean_us(entry):
    return entry["responses"]["overall"]["mean_us"]


def test_every_file_holds_the_claimed_schemes():
    for name in FILES:
        assert {key.partition("/")[0] for key in SNAPSHOTS[name]} \
            >= set(NO_MERGE_SCHEMES), name


@pytest.mark.parametrize("schemes", runs(FILES))
def test_page_mapping_schemes_never_merge(schemes):
    for scheme in NO_MERGE_SCHEMES:
        ftl = schemes[scheme]["ftl"]
        merges = {kind: ftl[f"merges_{kind}"]
                  for kind in ("full", "partial", "switch")}
        assert merges == {"full": 0, "partial": 0, "switch": 0}, scheme


@pytest.mark.parametrize("schemes", runs(SINGLE_PAGE_FILES))
def test_lazyftl_dftl_fast_bast_by_mean_response(schemes):
    present = [scheme for scheme in ORDER if scheme in schemes]
    means = [mean_us(schemes[scheme]) for scheme in present]
    assert means == sorted(means) and len(set(means)) == len(means), \
        dict(zip(present, means))


@pytest.mark.parametrize("schemes", runs(FILES))
def test_lazyftl_is_close_to_ideal(schemes):
    ratio = mean_us(schemes["LazyFTL"]) / mean_us(schemes["ideal"])
    assert ratio <= MAX_RATIO_TO_IDEAL


@pytest.mark.parametrize("schemes", runs(FILES))
def test_lazyftl_erases_fewer_blocks_than_dftl(schemes):
    erases = {scheme: schemes[scheme]["flash"]["block_erases"]
              for scheme in ("LazyFTL", "DFTL")}
    assert erases["LazyFTL"] < erases["DFTL"], erases


@pytest.mark.parametrize("schemes", runs(("engine_stats",)))
def test_lazyftl_beats_superblock(schemes):
    pair = (schemes["LazyFTL"], schemes["superblock"])
    means = [mean_us(entry) for entry in pair]
    erases = [entry["flash"]["block_erases"] for entry in pair]
    assert means[0] < means[1] and erases[0] < erases[1], (means, erases)
