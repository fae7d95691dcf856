"""Discounted, normalized statistical-parity measures for rankings: rND
(proportion difference), rKL (KL divergence) and rRD (ratio difference).

Each measure accumulates a set-wise parity term at every cutoff of a schedule,
weighted by 1/log2(i), and divides by the largest value attainable for the
given group sizes. Logarithms are base 2 throughout. 0 means statistical
parity at every cutoff; 1 is the worst attainable value.

Every path measures through one ``Scale`` per group size. ``Scale.of`` alone
builds the cutoffs, checks the group, computes the normalizers and decides
whether rRD applies (a minority protected group, or the explicit override).
One vectorized kernel, ``_discounted_terms``, computes every discounted term
(term / log2 i) over one or more rows of prefix counts, and one call of it
evaluates all three measures, stacked in ``MeasureKind`` order. It is the only
code that computes a parity term; the tests pin it exactly to each term
computed from its definition in Python floats, with numpy's log2 (``math.log2``
differs by an ulp on some arguments). Every caller sums a row with
``_row_sums``, strictly left to right, so a ranking equal to the maximizing
extreme scores exactly 1 and no value depends on the Python version.

The rND/rKL normalizer is the larger of the discounted sums of the two
segregated rankings: all protected items first, or all last. That this is the
maximum over all rankings with the given (n, n_plus) is verified, not proven:
the tests compare it exactly with a dynamic program over feasible prefix-count
sequences for every n <= 80 and a seeded sample up to n = 2000. The rRD
normalizer is the discounted sum of the all-nonprotected-first extreme, which
anchors the fully segregated minority-last ranking at exactly 1.0; outside
rRD's meaningful regime (minority protected group, protected items not
crowded to the top) values above 1 are possible and are reported as computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .ranking import Ranking, build_schedule, fmt

_TINY = np.finfo(float).tiny


class DegenerateGroupError(ValueError):
    """The protected group is empty or the whole population."""


class RrdInapplicableError(ValueError):
    """rRD requested for a majority protected group without the override."""


class MeasureKind(enum.Enum):
    RND = "rnd"
    RKL = "rkl"
    RRD = "rrd"


def check_group(n: int, n_plus: int) -> None:
    """Raise ``DegenerateGroupError`` unless both groups are nonempty."""
    if n_plus <= 0 or n_plus >= n:
        raise DegenerateGroupError(
            f"protected group size {n_plus} of {n} is degenerate"
        )


def feasible_band(i, n: int, n_plus: int) -> tuple[np.ndarray, np.ndarray]:
    """Range [lo, hi] of the protected count among the top ``i`` of ``n``
    items, ``n_plus`` protected, broadcast over ``i``: ``lo`` with every
    protected item last, ``hi`` with all of them first."""
    return np.maximum(0, i - (n - n_plus)), np.minimum(i, n_plus)


def _discounted_terms(
    cutoffs: np.ndarray, counts: np.ndarray, n: int, n_plus: int
) -> np.ndarray:
    """The three measures' parity terms divided by log2(i) at the given
    cutoffs, stacked on a new first axis in ``MeasureKind`` order.

    ``counts`` holds the prefix counts at ``cutoffs`` along its last axis, one
    row per ranking; entries at infeasible pairs are meaningless. Every parity
    term is computed here, and callers sum a row strictly left to right with
    ``_row_sums``, so a ranking equal to the maximizing extreme scores
    exactly 1.
    """
    i = np.asarray(cutoffs, dtype=float)
    c = np.asarray(counts, dtype=float)
    share, rest = c / i, i - c
    # rKL: KL((share, rest / i) || (n_plus / n, n_minus / n)), both components
    # straight from the counts so that a prefix in exact proportion yields
    # exactly 0; 0 * log 0 = 0, and a tiny negative sum is rounding noise
    kl1, kl2 = (
        np.where(p > 0.0, p * np.log2(np.maximum(p, _TINY) / q), 0.0)
        for p, q in ((share, n_plus / n), (rest / i, (n - n_plus) / n))
    )
    rkl = np.maximum(kl1 + kl2, 0.0)
    # rRD: a fraction with a zero numerator or denominator counts as 0
    ratio = np.divide(c, rest, out=np.zeros_like(rest), where=(c > 0.0) & (rest > 0.0))
    terms = [np.abs(share - n_plus / n), rkl, np.abs(ratio - n_plus / (n - n_plus))]
    return np.stack(terms) / np.log2(i)


def normalizer(
    kind: MeasureKind,
    n: int,
    n_plus: int,
    step: int = 10,
    allow_majority_rrd: bool = False,
) -> float:
    """Largest attainable discounted sum for the given group sizes, as
    ``Scale.of`` finds it; ``RrdInapplicableError`` where rRD does not apply."""
    return Scale.of(n, n_plus, step, allow_majority_rrd).normalizer(kind)


class Scale(NamedTuple):
    """The cutoffs and each measure's normalizer, in ``MeasureKind`` order,
    shared by every ranking with ``n`` items, ``n_plus`` protected. rRD's is
    None where ``of``, the one place that decides it, finds that rRD does not
    apply. Used inside the package; not exported."""

    n: int
    n_plus: int
    cutoffs: np.ndarray
    normalizers: tuple[float, float, Optional[float]]

    @classmethod
    def of(
        cls, n: int, n_plus: int, step: int = 10, allow_majority_rrd: bool = False
    ) -> Scale:
        """Checks the step, then the group. The normalizers come from one
        kernel call on the two edges of ``feasible_band``, the segregated
        rankings, in O(n / step). All are 0.0 when n <= step: the only cutoff
        is then the whole ranking, where every ranking scores 0."""
        cutoffs = build_schedule(n, step)
        check_group(n, n_plus)
        extremes = np.stack(feasible_band(cutoffs, n, n_plus))
        (rnd_last, rnd_first), (rkl_last, rkl_first), (rrd_last, _) = _row_sums(
            _discounted_terms(cutoffs, extremes, n, n_plus)
        ).tolist()
        rrd = rrd_last if 2 * n_plus <= n or allow_majority_rrd else None
        zs = (max(rnd_first, rnd_last), max(rkl_first, rkl_last), rrd)
        return cls(n, n_plus, cutoffs, zs)

    def normalizer(self, kind: MeasureKind) -> float:
        """``kind``'s normalizer; ``RrdInapplicableError`` where it is None."""
        z = self.normalizers[list(MeasureKind).index(kind)]
        if z is None:
            raise RrdInapplicableError(
                f"rRD needs a minority protected group (n_plus={self.n_plus}, n={self.n})"
            )
        return z

    def counts(self, flags: np.ndarray) -> np.ndarray:
        """Prefix counts of ``flags`` (in rank order) at the cutoffs."""
        return np.cumsum(flags)[self.cutoffs - 1]

    def measure(self, counts: np.ndarray) -> tuple[np.ndarray, list]:
        """Rankings measured from their prefix counts at the cutoffs, one row
        of ``counts`` per ranking, in one kernel call: the stack of every
        row's discounted terms from ``_discounted_terms``, and per row
        ``(rnd, rkl, rrd)`` as Python floats, each row's ``_row_sums`` over
        its normalizer (0.0 where that is 0; None for an inapplicable rRD)."""
        terms = _discounted_terms(self.cutoffs, np.atleast_2d(counts), self.n, self.n_plus)
        values = [
            [None] * len(sums) if z is None else [s / z if z else 0.0 for s in sums]
            for sums, z in zip(_row_sums(terms).tolist(), self.normalizers)
        ]
        return terms, list(zip(*values))


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` (its last axis) summed strictly left to right
    from 0.0, bit for bit what Python 3.11's ``sum()`` gives: ``cumsum`` adds
    in order, and adding 0.0 turns an all ``-0.0`` row's total into 0.0."""
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def measure_from_flags(
    kind: MeasureKind,
    flags: np.ndarray,
    step: int = 10,
    allow_majority_rrd: bool = False,
) -> float:
    """Measure a ranking given only its protected-flag sequence in rank
    order, on its ``Scale``. Vectorized over cutoffs."""
    flags = np.asarray(flags, dtype=bool)
    scale = Scale.of(flags.size, int(np.count_nonzero(flags)), step, allow_majority_rrd)
    scale.normalizer(kind)  # raises RrdInapplicableError where rRD does not apply
    _, [values] = scale.measure(scale.counts(flags))
    return values[list(MeasureKind).index(kind)]


@dataclass(frozen=True)
class FairnessReport:
    """The measures of a ranking and, per cutoff in ``cutoffs``, the protected
    prefix count and each measure's discounted term (term / log2 i), as
    columns. rRD's terms and normalizer are None for a majority group."""

    n: int
    n_plus: int
    step: int
    rnd: float
    rkl: float
    rrd: Optional[float]
    cutoffs: tuple[int, ...]
    counts: tuple[int, ...]
    terms: tuple[tuple[float, ...], tuple[float, ...], Optional[tuple[float, ...]]]
    normalizers: tuple[float, float, Optional[float]]


def fairness_report(ranking: Ranking, step: int = 10) -> FairnessReport:
    """All three measures plus per-cutoff diagnostics. rRD is reported as
    None (not raised) when the protected group is the majority."""
    scale = Scale.of(ranking.n, ranking.n_plus, step)
    c = scale.counts(ranking.flags)
    terms, [values] = scale.measure(c)
    return FairnessReport(
        ranking.n,
        ranking.n_plus,
        step,
        *values,
        cutoffs=tuple(scale.cutoffs.tolist()),
        counts=tuple(c.tolist()),
        terms=tuple(
            None if z is None else tuple(row)
            for row, z in zip(terms[:, 0].tolist(), scale.normalizers)
        ),
        normalizers=scale.normalizers,
    )


def report_to_json(report: FairnessReport) -> str:
    """Stable JSON serialization with 6-decimal reals."""
    t_rnd, t_rkl, t_rrd = report.terms
    rows = ",\n    ".join(
        f'{{"i": {i}, "c": {c}, "term_rnd": {a:.6f}, "term_rkl": {b:.6f}, '
        f'"term_rrd": {fmt(r, "null")}}}'
        for i, c, a, b, r in zip(
            report.cutoffs, report.counts, t_rnd, t_rkl, t_rrd or repeat(None)
        )
    )
    z_rnd, z_rkl, z_rrd = report.normalizers
    return (
        "{\n"
        f'  "n": {report.n},\n'
        f'  "n_plus": {report.n_plus},\n'
        f'  "step": {report.step},\n'
        f'  "rnd": {fmt(report.rnd, "null")},\n'
        f'  "rkl": {fmt(report.rkl, "null")},\n'
        f'  "rrd": {fmt(report.rrd, "null")},\n'
        f'  "normalizers": {{"rnd": {fmt(z_rnd, "null")}, "rkl": {fmt(z_rkl, "null")}, '
        f'"rrd": {fmt(z_rrd, "null")}}},\n'
        f'  "per_cutoff": [\n    {rows}\n  ]\n'
        "}\n"
    )
