"""A reference listing of spectrum tables for the tests to compare against.

The package never lists the law lines of a ``from_law`` table: every reader
generates them from the law.  ``listed`` writes them out, row for row the
table ``SpectrumTable.from_lines`` would hold.
"""

import numpy as np

from crtorsion.spectra import SpectrumTable


def listed(spec: SpectrumTable) -> np.ndarray:
    """Every line of ``spec`` as a (q, lam, mult) structured array sorted by
    (q, lam): the stored rows plus, on an implied table, the law lines
    k = k_first..k_next-1 in each tail degree."""
    if not spec.implied:
        return spec.lines
    tail = spec.tail
    k = np.arange(tail.k_first, tail.k_next, dtype=float)
    law = np.column_stack((tail.law.lam(k), tail.law.mult(k)))
    stored = spec.stored
    rows = [np.column_stack((stored["q"], stored["lam"], stored["mult"]))]
    rows += [np.column_stack((np.full(k.size, q), law)) for q in tail.degrees]
    return SpectrumTable.from_lines(np.concatenate(rows), n=spec.n).lines
