"""The distance-7 adaptive rule as scalar Python, kept as a reference for
the tests: ``decode_d7`` runs the rule once per syndrome and outcome
sequence, fetching re-measurements through a live ``measure`` callback
(``_Round2``).  ``decoders.RuleDecoderD7.reread_tables`` runs the same
rule on arrays, for every outcome vector of many syndromes at once."""

from __future__ import annotations

from typing import Iterable

from cutcat.decoders import MeasureFn, arc_sets, j_list


class _Round2:
    """Lazily fetched re-measurement outcomes, compared against round one."""

    def __init__(self, round0_bits: int, ring_size: int, measure: MeasureFn):
        self.round0 = round0_bits
        self.m = ring_size
        self._measure = measure
        self.values: dict[int, int] = {}
        self.requested: list[int] = []

    def _fetch(self, indices: Iterable[int]) -> None:
        need = []
        for i in indices:
            i %= self.m
            if i not in self.values and i not in need:
                need.append(i)
        if need:
            got = self._measure(tuple(need))
            for i in need:
                self.values[i] = int(got[i]) & 1
                self.requested.append(i)

    def changed(self, indices: Iterable[int]) -> bool:
        """True if any listed stabilizer reads differently than round one."""
        idx = [i % self.m for i in indices]
        self._fetch(idx)
        return any(self.values[i] != ((self.round0 >> i) & 1) for i in idx)


def decode_d7(
    round0_bits: int, ring_size: int, measure: MeasureFn,
) -> tuple[frozenset[int], tuple[int, ...]]:
    """Adaptive distance-7 decoder.

    Dispatches on the trigger count, re-measuring at most four ring
    stabilizers through ``measure`` to separate persistent cat errors
    from transient measurement faults.  Returns the selected cat indices
    and the stabilizers actually re-measured.
    """
    m = ring_size
    triggers = [i for i in range(m) if (round0_bits >> i) & 1]
    na = len(triggers)
    r2 = _Round2(round0_bits, m, measure)
    corr: set[int] = set()

    def on(j: int) -> int:
        return (round0_bits >> (j % m)) & 1

    def find_rotation(offsets: tuple[int, ...]):
        target = set(triggers)
        for j in triggers:
            if {(j + o) % m for o in offsets} == target:
                return j
        return None

    def arc_fallback(limit: int = 3) -> None:
        selected, complement = arc_sets(triggers, m)
        if len(selected) <= limit:
            corr.update(selected)
        elif len(complement) <= limit:
            corr.update(complement)

    if na == 1:
        a0 = triggers[0]
        if r2.changed(j_list(1, 0, a0, m)):
            corr.add((a0 + 1) % m)
        elif r2.changed(j_list(1, 1, a0, m)):
            corr.add(a0)

    elif na == 2:
        a, b = triggers
        gap_ab = (b - a) % m
        gap_ba = (a - b) % m
        handled = False
        if gap_ab == 3 or gap_ba == 3:
            j = a if gap_ab == 3 else b
            if r2.changed(j_list(2, 0, j, m)):
                handled = True
        elif gap_ab == 2 or gap_ba == 2:
            j = a if gap_ab == 2 else b
            if r2.changed((j,)):
                if r2.changed(j_list(2, 2, j, m)):
                    handled = True
            elif r2.changed(((j + 2) % m,)):
                if r2.changed(j_list(2, 3, j, m)):
                    handled = True
            elif r2.changed(j_list(2, 4, j, m)):
                corr.add((j + 1) % m)
                handled = True
        if not handled:
            arc_fallback()

    elif na == 3:
        handled = True
        j = find_rotation((0, 2, 4))
        if j is not None:
            # unchanged outcomes at {j+3, j+4} mean the persistent pair
            # sits between stabilizers j+2 and j+4
            if not r2.changed(j_list(3, 0, j, m)):
                corr.add((j + 4) % m)
            else:
                corr.add((j + 1) % m)
        elif (j := find_rotation((0, 1, 2))) is not None:
            if r2.changed(((j + 1) % m,)):
                corr.add((j + 1) % m)
            elif r2.changed(((j - 1) % m,)):
                corr.add((j + 2) % m)
            elif not r2.changed((j,)):
                if r2.changed(((j - 2) % m,)):
                    corr.add((j + 2) % m)
                else:
                    corr.add((j + 1) % m)
            else:
                corr.add((j + 2) % m)
        elif (j := find_rotation((0, 2, 3))) is not None:
            if r2.changed(j_list(3, 1, j, m)):
                corr.add((j + 1) % m)
            else:
                handled = False
        elif (j := find_rotation((0, 1, 3))) is not None:
            if r2.changed(j_list(3, 2, j, m)):
                corr.add((j + 2) % m)
            else:
                handled = False
        else:
            handled = False
        if not handled:
            for g in range(m):
                if on(g) and on(g + 1):
                    corr.add((g + 1) % m)
                    handled = True
        if not handled:
            for g in range(m):
                if on(g) and on(g + 2):
                    corr.add((g + 1) % m)

    elif na == 4:
        handled = False
        j = find_rotation((0, 1, 2, 3))
        if j is not None:
            if r2.changed(j_list(4, 0, j, m)) and r2.changed(j_list(4, 1, j, m)):
                handled = True
        elif (j := find_rotation((0, 1, 2, 4))) is not None:
            if r2.changed(j_list(4, 2, j, m)):
                handled = True
        elif (j := find_rotation((0, 2, 3, 4))) is not None:
            if r2.changed(j_list(4, 3, j, m)):
                handled = True
        if not handled:
            arc_fallback()

    elif na == 5:
        j = find_rotation((0, 1, 2, 3, 4))
        if j is not None:
            if not r2.changed(j_list(5, 0, j, m)):
                corr.add((j + 4) % m)
            else:
                corr.add((j + 3) % m)
        else:
            for g in range(m):
                if on(g) and on(g + 1):
                    if not (on(g - 1) and on(g + 2)) or (on(g + 2) and on(g + 3)):
                        corr.add((g + 1) % m)

    elif na >= 6 and na % 2 == 0:
        selected, complement = arc_sets(triggers, m)
        chosen = selected if len(selected) < len(complement) else complement
        if (len(chosen) <= 3 and na == 6) or na > 6:
            corr.update(chosen)

    # odd trigger counts above five are unreachable within the fault
    # budget; leave them uncorrected

    if len(r2.requested) > 4:
        raise AssertionError(
            f"re-measured {len(r2.requested)} stabilizers, budget is 4"
        )
    return frozenset(corr), tuple(r2.requested)
