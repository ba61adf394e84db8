"""`tick` against `reference_step` on every state the stateful half can reach.

`tick` sees its input only through the chest level `frame.brzC`, the
sign of the speed, and `fuse` of the frame and flags under each value of
`inferred`.  So the 320 frames times 16 flag sets `sense` can give, times
three speed signs, fall into 93 classes that act alike: one per chest
level, speed sign, and the reference's and `fuse`'s candidates under each
`inferred` value.  One representative per class, with one chest reading
per level, covers them all.

The state is finite: `run` matters only up to `debounce_ticks`, so it is
capped there, in `tick`'s state and the reference's alike.  The walk goes
breadth-first from `TickState()` and `ReferenceState()`, one tick of every
class from each state pair it reaches, and each tick's `inferred` and
`advisory` must be the reference's.  A state pair is `TickState`'s slots,
read by name, and the reference's state; each is expanded once, so no
path is replayed.

`debounce_ticks` 1 commits each candidate at once and 2 holds it; a
longer debounce only holds it longer.  At 3 the walk reaches 10,926
state pairs and costs more than twice as much as at 2, so it is left
out of the tests here; CI runs `walk(3)` as a step of its own.
"""

from functools import cache
from itertools import product
from operator import attrgetter

import pytest

from ultranav.classify import Advisory, BuzzerFrame, UpperLevel
from ultranav.pipeline import TickFlags, TickState, fuse, tick

from oracles import ReferenceState, reference_candidate, reference_step

# A chest reading per chest level 0 to 4.
CHEST_READINGS = (None, 120.0, 70.0, 50.0, 30.0)
SPEEDS = (-50.0, 0.0, 100.0)
# The values of `tick`'s `inferred` and `advisory`, keyed by their printed cells.
AS_INFERRED = {"-": None, **{band.value: band for band in UpperLevel}}
AS_ADVISORY = {advisory.value: advisory for advisory in Advisory}

_SLOTS = TickState.__slots__
_read = attrgetter(*_SLOTS)


@cache
def input_classes():
    """One (sensed, speed, reference tick) per class of inputs that act alike."""
    classes = {}
    for levels, findings, speed in product(
        product(range(5), range(4), range(4), range(4)),
        product((False, True), (0, 1), (0, 1), (False, True)),
        SPEEDS,
    ):
        frame, flags = BuzzerFrame(*levels), TickFlags(*findings)
        candidates = tuple(
            (reference_candidate(levels, *findings, inferred),
             fuse(frame, flags._replace(inferred=band)))
            for inferred, band in AS_INFERRED.items()
        )
        chest = CHEST_READINGS[levels[0]]
        classes.setdefault((levels[0], speed, candidates), (
            (chest, None, None, None, frame, flags), speed, (levels, *findings, chest, speed),
        ))
    return list(classes.values())


def walk(debounce_ticks):
    """(state pairs reached, mismatches)."""
    classes = input_classes()

    def restore(values):
        state = TickState.__new__(TickState)
        for name, value in zip(_SLOTS, values):
            setattr(state, name, value)
        return state

    start = (_read(TickState()), ReferenceState())
    seen, frontier, mismatches = {start}, [start], []
    while frontier:
        following = []
        for values, reference in frontier:
            for sensed, speed, reference_tick in classes:
                state = restore(values)
                row = tick(state, sensed, 0.0, speed, debounce_ticks)[0]
                after = reference_step(reference, reference_tick, debounce_ticks)
                if (row.flags.inferred is not AS_INFERRED[after.inferred]
                        or row.advisory is not AS_ADVISORY[after.advisory]):
                    mismatches.append((values, reference, reference_tick, row))
                    continue
                if state.run > debounce_ticks:
                    state.run = debounce_ticks
                if after.run_length > debounce_ticks:
                    after = ReferenceState(*after[:5], debounce_ticks)
                pair = (_read(state), after)
                if pair not in seen:
                    seen.add(pair)
                    following.append(pair)
        frontier = following
    return seen, mismatches


@pytest.mark.parametrize("debounce_ticks,states", [(1, 476), (2, 5701)])
def test_every_reachable_state_matches_the_reference(debounce_ticks, states):
    seen, mismatches = walk(debounce_ticks)
    assert mismatches[:5] == []
    assert len(seen) == states
    # Every tick's cells are those of the reference state it leads to.
    cells = {(reference.inferred, reference.advisory) for _, reference in seen}
    assert {advisory for _, advisory in cells} == set(AS_ADVISORY)
    assert {inferred for inferred, _ in cells} == set(AS_INFERRED)


def test_inputs_fall_into_93_classes():
    # A `fuse` that told apart inputs the reference treats alike would
    # split a class.
    assert len(input_classes()) == 93
