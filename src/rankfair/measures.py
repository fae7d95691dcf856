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
evaluates all three measures, written into one stack in ``MeasureKind`` order
with each temporary dropped once read. It is the only code that computes a
parity term; the tests pin it exactly to each term computed from its
definition in Python floats, with numpy's log2 (``math.log2`` differs by an
ulp on some arguments). Every caller sums a row with ``_row_sums``, strictly
left to right, so a ranking equal to the maximizing extreme scores exactly 1
and no value depends on the Python version. ``Scale.measure`` is the one step
from prefix counts to measure values: kernel, row sums and the divide by each
normalizer, in kernel calls of at most ``_KERNEL_TERMS`` terms.

``fairness_report`` keeps its per-cutoff diagnostics as the read-only arrays
they are computed as: the scale's cutoffs, the prefix counts, and the kernel's
(3, cutoffs) stack of discounted terms, whose rRD row is NaN where rRD does
not apply, as in ``Scale.measure``. No Python object is made per cutoff;
``report_to_json`` formats the columns a block of rows at a time.

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
from typing import NamedTuple, Optional

import numpy as np

from .ranking import Ranking, _format_rows, build_schedule

_TINY = np.finfo(float).tiny

# The most terms in one kernel call: at n = 1000 (100 cutoffs) a sweep seed's
# 11 f values take one call, and at n = 10**6 each call takes one row, so the
# kernel's working memory stays bounded at any n.
_KERNEL_TERMS = 2**16


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
    # each measure is written into its row of ``out``, and each temporary is
    # dropped once read, so a call holds about six arrays of ``counts``' size
    share = c / i
    rnd, rkl, rrd = out = np.empty((3, *share.shape))
    np.abs(np.subtract(share, n_plus / n, out=rnd), out=rnd)
    # rKL: KL((share, rest / i) || (n_plus / n, n_minus / n)), both components
    # straight from the counts so that a prefix in exact proportion yields
    # exactly 0; 0 * log 0 = 0, and a tiny negative sum is rounding noise.
    # The second component is built in rRD's row before rRD is.
    _kl_component(share, n_plus / n, rkl)
    rest = np.subtract(i, c, out=share)
    _kl_component(rest / i, (n - n_plus) / n, rrd)
    np.maximum(np.add(rkl, rrd, out=rkl), 0.0, out=rkl)
    # rRD: a fraction with a zero numerator or denominator counts as 0
    rrd.fill(0.0)
    np.divide(c, rest, out=rrd, where=(c > 0.0) & (rest > 0.0))
    np.abs(np.subtract(rrd, n_plus / (n - n_plus), out=rrd), out=rrd)
    out /= np.log2(i)
    return out


def _kl_component(p: np.ndarray, q: float, out: np.ndarray) -> None:
    """``p * log2(p / q)`` into ``out``, and 0 where ``p`` (never NaN) is not
    above 0."""
    np.log2(np.divide(np.maximum(p, _TINY, out=out), q, out=out), out=out)
    out *= p
    np.copyto(out, 0.0, where=p <= 0.0)


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
        """Prefix counts of ``flags`` (in rank order) at the cutoffs: the
        running total of each span's count, so no n-long running count is
        built."""
        starts = np.concatenate(([0], self.cutoffs[:-1]))
        return np.cumsum(np.add.reduceat(flags, starts, dtype=np.intp))

    def measure(self, counts: np.ndarray) -> np.ndarray:
        """Rankings measured from their prefix counts at the cutoffs, one row
        of ``counts`` per ranking: a (3, rows) array in ``MeasureKind`` order,
        each row's ``_row_sums`` over its normalizer, 0.0 where that is 0 and
        NaN where it is None. Each kernel call takes at most ``_KERNEL_TERMS``
        terms (at least one row)."""
        counts = np.atleast_2d(counts)
        sums = np.empty((3, counts.shape[0]))
        rows = max(1, _KERNEL_TERMS // self.cutoffs.size)
        for j in range(0, counts.shape[0], rows):
            sums[:, j : j + rows] = _row_sums(
                _discounted_terms(self.cutoffs, counts[j : j + rows], self.n, self.n_plus)
            )
        zs = np.array([np.nan if z is None else z for z in self.normalizers])[:, None]
        return np.divide(sums, zs, out=np.zeros_like(sums), where=zs != 0.0)


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
    return float(scale.measure(scale.counts(flags))[list(MeasureKind).index(kind), 0])


@dataclass(frozen=True, eq=False)
class FairnessReport:
    """The measures of a ranking and, per cutoff in ``cutoffs``, the protected
    prefix count and each measure's discounted term (term / log2 i), as
    read-only columns: ``terms`` is the kernel's (3, len(cutoffs)) output in
    ``MeasureKind`` order. For a majority group rRD and its normalizer are
    None and its row of ``terms`` is NaN."""

    n: int
    n_plus: int
    step: int
    rnd: float
    rkl: float
    rrd: Optional[float]
    cutoffs: np.ndarray
    counts: np.ndarray
    terms: np.ndarray
    normalizers: tuple[float, float, Optional[float]]


def fairness_report(ranking: Ranking, step: int = 10) -> FairnessReport:
    """All three measures plus per-cutoff diagnostics. rRD is reported as
    None (not raised) when the protected group is the majority."""
    scale = Scale.of(ranking.n, ranking.n_plus, step)
    counts = scale.counts(ranking.flags)
    terms = _discounted_terms(scale.cutoffs, counts, ranking.n, ranking.n_plus)
    if scale.normalizers[2] is None:
        terms[2] = np.nan
    rnd, rkl, rrd = scale.measure(counts)[:, 0].tolist()
    counts.flags.writeable = terms.flags.writeable = False
    return FairnessReport(
        ranking.n, ranking.n_plus, step, rnd, rkl, None if rrd != rrd else rrd,
        scale.cutoffs, counts, terms, scale.normalizers,
    )


# one per-cutoff row of ``report_to_json`` up to its rRD term; each row ends
# with the separator of the next, and the last row's is cut off
_CUTOFF_ROW = '{"i": %s, "c": %s, "term_rnd": %f, "term_rkl": %f, "term_rrd": '
_SEPARATOR = ",\n    "


def _json_real(x: Optional[float]) -> str:
    """A real with 6 decimals, or JSON's ``null`` for None."""
    return "null" if x is None else f"{x:.6f}"


def report_to_json(report: FairnessReport) -> str:
    """Stable JSON serialization with 6-decimal reals and a NaN rRD term as
    null; the per-cutoff rows are formatted a block at a time by
    ``ranking._format_rows``."""
    row, blank = (_CUTOFF_ROW + end + _SEPARATOR for end in ("%f}", "%.0snull}"))
    rows = list(_format_rows(row, [report.cutoffs, report.counts, *report.terms], blank))
    if rows:
        rows[-1] = rows[-1][: -len(_SEPARATOR)]
    z_rnd, z_rkl, z_rrd = report.normalizers
    head = (
        "{\n"
        f'  "n": {report.n},\n'
        f'  "n_plus": {report.n_plus},\n'
        f'  "step": {report.step},\n'
        f'  "rnd": {_json_real(report.rnd)},\n'
        f'  "rkl": {_json_real(report.rkl)},\n'
        f'  "rrd": {_json_real(report.rrd)},\n'
        f'  "normalizers": {{"rnd": {_json_real(z_rnd)}, "rkl": {_json_real(z_rkl)}, '
        f'"rrd": {_json_real(z_rrd)}}},\n'
        '  "per_cutoff": [\n    '
    )
    return "".join([head, *rows, "\n  ]\n}\n"])
