"""ideal against an executable reference: the denominator of every claim.

Every paper claim is a ratio to ideal
(:class:`repro.ftl.pure_page.PageFTL`).  The golden snapshots pin that
ideal's numbers do not change; these tests pin that they are right,
against ``tests/reference_ftl.py`` (a cost-benefit page-mapped FTL
written out on its own) and against the closed form for FIFO cleaning
under uniform writes (Hu et al., SYSTOR 2009; Desnoyers, SYSTOR 2012)::

    A = a / (a + W(-a e^-a)),    a = physical pages / logical pages

The measure is page programs per host write over the measured writes,
after a sequential fill and one footprint of warm-up.

**Why ideal and the reference differ, and the tolerance.**  ideal sends
GC copies to a frontier of their own; the reference appends them to the
host log.  Given a GC log too (``gc_log=True``) the reference programs
and erases exactly what ideal does, so the destination of GC copies is
the whole difference.  A second open block keeps up to a block of
erased pages out of use until GC fills it, and keeps GC copies apart
from host writes, which under uniform writes says nothing about
lifetimes: the difference has no fixed sign and is worth about one
block of spare space.  The tolerance is that block, priced by the
closed form: its relative change when the device loses one block
(0.8 % at 0.70, 1.5 % at 0.80, 3.5 % at 0.90 on 256 x 64).  Where GC
runs matters as much: a reference that collects before *every* write
while ``gc_free_threshold`` or fewer blocks are free keeps one block
more in reserve, and sits 0.3-1.6 % above ideal; this one collects
where ideal does, when the host log needs a new block.

**The closed-form band.**  Greedy collects the emptiest block and FIFO
the oldest; under uniform writes no block is colder than another, so
age buys nothing and greedy does best of the three, better than FIFO by
less than one block of spare at 64 pages per block: the lower edge.
Cost-benefit weighs emptiness by age, and under uniform writes a
block's live count falls with its age, so it collects much what FIFO
would.  Measured with the reserve below, it sits 0.9 % / 1.7 % / 3.2 %
above FIFO on the whole device at 0.70 / 0.80 / 0.90, where greedy sat
0.2 % / 0.6 % / 1.1 % above it.  The reserve -
``gc_free_threshold`` free blocks and two open ones - holds no page GC
can reclaim, so FIFO on the device less the reserve is the upper edge,
and cost-benefit stays under it: 2.4 % / 4.4 % / 12.5 % below.
"""

import math

import pytest

from repro.ftl import select_cost_benefit, select_greedy
from repro.sim.factory import standard_setup
from repro.traces import financial1, uniform_random

from .reference_ftl import ReferenceFTL

BLOCKS = 256
PAGES = 64
THRESHOLD = 2  # PageFTL's default gc_free_threshold
RESERVE = THRESHOLD + 2  # free blocks plus the host and GC open blocks
FRACTIONS = (0.70, 0.80, 0.90)
SEED = 1


def closed_form(physical_pages, logical_pages):
    """FIFO write amplification: a / (a + W0(-a e^-a)), W0 by Newton."""
    a = physical_pages / logical_pages
    x = -a * math.exp(-a)
    w = -0.5  # W0 of x in (-1/e, 0) lies in (-1, 0)
    for _ in range(50):
        ew = math.exp(w)
        w -= (w * ew - x) / (ew * (w + 1))
    return a / (a + w)


def one_block(logical_pages):
    """The closed form's relative change when the device loses a block."""
    return closed_form((BLOCKS - 1) * PAGES, logical_pages) / \
        closed_form(BLOCKS * PAGES, logical_pages) - 1


def logical_pages(fraction):
    """The exported pages ``standard_setup`` gives ideal at ``fraction``."""
    return int(BLOCKS * PAGES * fraction)


def measure(model, fraction, warm, measured):
    """(programs per host write, erases) over ``measured``, after a
    sequential fill and ``warm``; ``model`` is "ideal" or a reference."""
    logical = logical_pages(fraction)
    if model == "ideal":
        flash, ftl, exported = standard_setup(
            "ideal", num_blocks=BLOCKS, pages_per_block=PAGES,
            logical_fraction=fraction, gc_free_threshold=THRESHOLD)
        assert exported == logical
        write = ftl.write
        stats = flash.stats

        def counts():
            return stats.page_programs, stats.block_erases
    else:
        ref = ReferenceFTL(BLOCKS, PAGES, THRESHOLD,
                           gc_log=model == "reference+gc-log")
        write = ref.write

        def counts():
            return ref.programs, ref.erases
    for lpn in range(logical):
        write(lpn)
    for lpn in warm:
        write(lpn)
    programs, erases = counts()
    for lpn in measured:
        write(lpn)
    after = counts()
    return (after[0] - programs) / len(measured), after[1] - erases


def uniform_stream(fraction):
    """One footprint of warm-up and two measured, uniform random."""
    logical = logical_pages(fraction)
    lpns = list(uniform_random(3 * logical, logical, seed=SEED).lpns)
    return lpns[:logical], lpns[logical:]


def financial_stream(fraction):
    """financial1's write pages, a third warm-up, the rest measured."""
    trace = financial1(40_000, footprint_pages=logical_pages(fraction),
                       seed=SEED)
    lpns = [lpn + i for op, lpn, n in
            zip(trace.ops, trace.lpns, trace.npages) if op for i in range(n)]
    return lpns[:len(lpns) // 3], lpns[len(lpns) // 3:]


STREAMS = [(f"uniform-{f:.2f}", f, uniform_stream) for f in FRACTIONS] + [
    ("financial1-0.85", 0.85, financial_stream)]
MODELS = ("ideal", "reference", "reference+gc-log")


@pytest.fixture(scope="module")
def results():
    """{(stream, model): (programs per write, erases)}, measured once."""
    out = {}
    for name, fraction, make in STREAMS:
        warm, measured = make(fraction)
        for model in MODELS:
            out[name, model] = measure(model, fraction, warm, measured)
    return out


@pytest.mark.parametrize("stream", [s[0] for s in STREAMS])
def test_ideal_is_the_reference_with_a_gc_log(results, stream):
    assert results[stream, "ideal"] == results[stream, "reference+gc-log"]


@pytest.mark.parametrize("stream, fraction",
                         [(s[0], s[1]) for s in STREAMS])
def test_ideal_is_within_one_block_of_the_reference(results, stream,
                                                    fraction):
    ideal = results[stream, "ideal"][0]
    reference = results[stream, "reference"][0]
    assert abs(ideal / reference - 1) <= one_block(logical_pages(fraction))


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("model", ("ideal", "reference"))
def test_uniform_writes_sit_near_the_fifo_closed_form(results, model,
                                                      fraction):
    logical = logical_pages(fraction)
    low = closed_form((BLOCKS + 1) * PAGES, logical)
    high = closed_form((BLOCKS - RESERVE) * PAGES, logical)
    measured = results[f"uniform-{fraction:.2f}", model][0]
    assert low <= measured <= high, (low, measured, high)


def test_select_cost_benefit_is_the_reference_victim():
    """One victim rule: at every collection of a reference run,
    ``select_cost_benefit`` over its full blocks - ``select_greedy`` on
    the last free block - names the block it collects
    (``test_gc_victim_index.py`` holds ideal's ``VictimPool`` picks to
    the same two functions)."""
    ref = ReferenceFTL(BLOCKS // 4, PAGES, THRESHOLD)
    picks = []
    own = ref.victim

    def victim():
        if len(ref.free) <= 1:
            theirs = select_greedy(ref.used, ref.valid)
        else:
            theirs = select_cost_benefit(ref.used, ref.valid,
                                         ref.sealed.__getitem__,
                                         ref.appends, PAGES)
        picks.append((own(), theirs, len(ref.free) <= 1))
        return picks[-1][0]

    ref.victim = victim
    logical = int(0.8 * (BLOCKS // 4) * PAGES)
    ref.run(range(logical))
    ref.run(uniform_random(2 * logical, logical, seed=SEED).lpns)
    assert sum(not last for _, _, last in picks) > 100
    assert all(mine == theirs for mine, theirs, _ in picks)
