"""Subdegree sequences, the JC table, Fermat-test ratios and the finite searches.

Everything here is exact: ratios are fractions.Fraction, searches are integer
comparisons.  A subdegree sequence is a weakly decreasing tuple of positive
integers, usually written in caret notation like '8^1 6^2 1^3'.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial

# Maximal orders of finite primitive projective linear groups in small degree.
# For r = 10, 11 and r >= 13 the maximum is (r+1)!.
_JC_TABLE = {
    1: 1,
    2: 60,
    3: 360,
    4: 25920,
    5: 25920,
    6: 6531840,
    7: 1451520,
    8: 348364800,
    9: 4199040,
    12: 448345497600,
}


def jc(r: int) -> int:
    """Largest order of a finite primitive subgroup of PGL(r, C)."""
    if r < 1:
        raise ValueError("degree must be positive")
    got = _JC_TABLE.get(r)
    return got if got is not None else factorial(r + 1)


class SequenceError(ValueError):
    pass


class SubdegreeSequence:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        p = tuple(sorted((int(x) for x in parts), reverse=True))
        if not p:
            raise SequenceError("sequence must be nonempty")
        if p[-1] < 1:
            raise SequenceError("parts must be positive")
        object.__setattr__(self, "parts", p)

    def __setattr__(self, *a):
        raise AttributeError("SubdegreeSequence is immutable")

    @classmethod
    def from_text(cls, text: str) -> SubdegreeSequence:
        """Parse caret notation: '2^13', '8^1 6^2 1^3', or plain '3 2 1'."""
        parts = []
        for chunk in re.split(r"[,\s]+", text.strip()):
            if not chunk:
                continue
            m = re.fullmatch(r"(\d+)(?:\^(\d+))?", chunk)
            if not m:
                raise SequenceError("bad sequence chunk %r" % chunk)
            r, k = int(m.group(1)), int(m.group(2)) if m.group(2) else 1
            parts.extend([r] * k)
        return cls(parts)

    @property
    def total(self) -> int:
        """v(l), the sum of the parts."""
        return sum(self.parts)

    def multiplicities(self):
        """Distinct parts r1 > r2 > ... with multiplicities, as (r_i, k_i) pairs."""
        out = []
        for p in self.parts:
            if out and out[-1][0] == p:
                out[-1] = (p, out[-1][1] + 1)
            else:
                out.append((p, 1))
        return out

    def exponential_type(self) -> str:
        return " ".join("%d^%d" % (r, k) for r, k in self.multiplicities())

    def count(self, part: int) -> int:
        return sum(1 for p in self.parts if p == part)

    def __add__(self, other):
        if isinstance(other, SubdegreeSequence):
            return SubdegreeSequence(self.parts + other.parts)
        return NotImplemented

    def __sub__(self, other):
        if not isinstance(other, SubdegreeSequence):
            return NotImplemented
        remaining = list(self.parts)
        for p in other.parts:
            try:
                remaining.remove(p)
            except ValueError:
                raise SequenceError("%s is not contained in %s" % (other, self))
        if not remaining:
            raise SequenceError("difference of sequences is empty")
        return SubdegreeSequence(remaining)

    def __eq__(self, other):
        if not isinstance(other, SubdegreeSequence):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "SubdegreeSequence(%r)" % (self.exponential_type(),)

    def __str__(self):
        return self.exponential_type()


def _as_seq(l) -> SubdegreeSequence:
    if isinstance(l, SubdegreeSequence):
        return l
    if isinstance(l, str):
        return SubdegreeSequence.from_text(l)
    return SubdegreeSequence(l)


def fermat_order(v: int, d: int) -> int:
    """d^v * v!, the order of the linear automorphism group of the Fermat form of degree d in v variables.

    It is the Fermat test's denominator (Shioda 1988); the projective order is
    fermat_order(v, d) // d.
    """
    return d ** v * factorial(v)


def ratio(l, d: int) -> Fraction:
    """Fermat-test ratio R(l, d) = d^s * prod JC(r_i) * prod k_j! / (d^v * v!)."""
    return ratio_with_groups([(r, jc(r)) for r in _as_seq(l).parts], d)


def ratio_with_groups(groups, d: int) -> Fraction:
    """R(H, d) with explicit constituent orders in place of the JC maxima.

    groups is a nonempty sequence of (subdegree, order) pairs; R(H, d) is
    their canonical bound over the runs of equal subdegree, divided by the
    Fermat order.
    """
    pairs = sorted(((int(r), int(h)) for r, h in groups), reverse=True)
    if not pairs:
        raise SequenceError("sequence must be nonempty")
    runs = [len(list(run)) for _, run in groupby(r for r, _ in pairs)]
    return Fraction(canonical_bound(pairs, runs, d), fermat_order(sum(r for r, _ in pairs), d))


def canonical_bound(groups, intrinsic_multiplicities, d: int) -> int:
    """B = d^s * prod |H_i| * prod k_j! over the intrinsic grouping.

    groups lists (subdegree, order) pairs in grouping order; consecutive runs
    of sizes k_j must have constant subdegree (blocks of one V_i share their
    dimension), and each order is at most the primitive maximum JC(r).
    """
    if d < 3:
        raise SequenceError("degree must be at least 3")
    pairs = [(int(r), int(h)) for r, h in groups]
    ks = [int(k) for k in intrinsic_multiplicities]
    if any(k < 1 for k in ks):
        raise SequenceError("intrinsic multiplicities must be positive")
    if sum(ks) != len(pairs):
        raise SequenceError("intrinsic multiplicities sum to %d, expected %d" % (sum(ks), len(pairs)))
    bound = d ** len(pairs)
    for r, h in pairs:
        if h < 1 or h > jc(r):
            raise SequenceError("order %d exceeds JC(%d)" % (h, r))
        bound *= h
    pos = 0
    for k in ks:
        block = pairs[pos:pos + k]
        if any(r != block[0][0] for r, _ in block):
            raise SequenceError("intrinsic group %r mixes subdegrees" % (block,))
        bound *= factorial(k)
        pos += k
    return bound


@lru_cache(maxsize=32)
def _tables(d: int) -> tuple:
    return [[1]], [[1]]     # the one bound table of degree d and its rows' factors; _best_products grows both


def _best_products(total: int, d: int):
    """B[c][m]: the largest prod_r g_r(k_r) over partitions of m into parts <= c.

    g_r(k) = k! * (d * JC(r))^k, so B[c][m] = max_k g_c(k) * B[c-1][m - c*k],
    with B[0][0] = 1 and B[0][m] = 0 for m > 0 (no partition); the k = 0 term
    makes B nondecreasing in c.

    One table per degree lives in the bounded cache _tables (emptied with the
    other lru caches) beside the factors g_c(0..k) of each row, and both grow
    in place: a larger total extends each row's factors and cells with the
    new ones, then appends the new rows; no cell or factor is computed twice.
    Callers share the table and only read it (at d = 3, total 200: 201 x 201,
    5.3 MB).
    """
    table, factors = _tables(d)
    size = len(table)
    if total >= size:
        table[0].extend([0] * (total + 1 - size))
        table.extend([] for _ in range(size, total + 1))
        factors.extend([1] for _ in range(size, total + 1))
        for c in range(1, total + 1):
            prev, row, g, step = table[c - 1], table[c], factors[c], d * jc(c)
            for k in range(len(g), total // c + 1):
                g.append(g[-1] * k * step)
            row.extend(max(g[k] * prev[m - c * k] for k in range(m // c + 1)) for m in range(len(row), total + 1))
    return table


def enumerate_sequences(total: int, d: int | None = None):
    """Partitions of total in descending-lex order; with d, only those with R(l, d) >= 1.

    The walk goes by runs (part p, multiplicity k), larger p first and larger
    k first.  With d given it is an exact branch-and-bound:

    * R(l, d) >= 1 iff prod_r g_r(k_r) >= d^v * v!, where g_r(k) =
      k! * (d * JC(r))^k and k_r is the multiplicity of r (the numerator
      d^s * prod JC(r_i) * prod k_j! of R, regrouped by runs).
    * A node with product acc over the runs so far and remainder rest is
      dropped when acc * B(p, rest) < d^v * v! (table of _best_products):
      no completion into parts <= p reaches the target.  B is nondecreasing
      in c, so every smaller p fails as well and the loop over p stops there.
      A child (p, k) is dropped when acc * g_p(k) * B(p-1, rest - p*k) is
      below the target; at a leaf B(p-1, 0) = 1, so exactly the partitions
      with R >= 1 are yielded, in the order of the unpruned walk.
    * 1^v attains equality (g_1(v) = d^v * v!), so the pruned walk always
      yields 1^v, last.
    """
    if total < 1:
        raise SequenceError("total must be positive")
    if d is not None and d < 3:
        raise SequenceError("degree must be at least 3")
    if d is None:       # no bound: every node reaches the target 0
        best, target = [[1] * (total + 1)] * (total + 1), 0
    else:
        best, target = _best_products(total, d), fermat_order(total, d)

    def walk(rest, cap, acc, prefix):
        if rest == 0:
            yield SubdegreeSequence(prefix)
            return
        for p in range(min(cap, rest), 0, -1):
            if acc * best[p][rest] < target:
                break
            step = d * jc(p) if d else 1
            for k in range(rest // p, 0, -1) if p > 1 else (rest,):
                child = acc * factorial(k) * step ** k
                if child * best[p - 1][rest - p * k] >= target:
                    yield from walk(rest - p * k, p - 1, child, prefix + [p] * k)

    yield from walk(total, total, 1, [])


def survivors_for(v: int, d: int):
    """Partitions of v with a part > 1 and R(l, d) >= 1, with exact ratios.

    The pruned walk enumerate_sequences(v, d) supplies the candidates; each is
    still kept only when its exact ratio is at least 1.  1^v, the walk's
    equality case, is left out.
    """
    out = []
    for seq in enumerate_sequences(v, d):
        if seq.parts[0] > 1:
            r = ratio(seq, d)
            if r >= 1:
                out.append((seq, r))
    return out


def classification_search(n_values, d_values):
    """Survivor report over the requested (n, d) grid.

    Returns a dict with the checked ranges and one record per survivor:
    (n, d, sequence, ratio).  The tests find no survivor at d = 3 for totals
    28..200 or at d = 18 for totals 3..30, and freeze the survivor list for
    n <= 25, d <= 17; R is non-increasing in d, so each empty scan holds at
    every larger d.  No code covers totals past 200.
    """
    n_list = sorted(set(int(n) for n in n_values))
    d_list = sorted(set(int(d) for d in d_values))
    if any(n < 1 for n in n_list):
        raise SequenceError("n must be at least 1")
    if any(d < 3 for d in d_list):
        raise SequenceError("d must be at least 3")
    records = []
    for n in n_list:
        for d in d_list:
            for seq, rat in survivors_for(n + 2, d):
                records.append({"n": n, "d": d, "sequence": seq, "ratio": rat})
    return {"n_values": n_list, "d_values": d_list, "survivors": records}


def uniform_bounds_check(l, d: int) -> dict:
    """Evaluate R(l, d) against the uniform bounds 106 / 60 / 3 / 11.

    R < 106 always; R < 60 once there are two distinct subdegrees; R < 3
    (resp. < 11) when the multiplicity of 1 is at least 2 (resp. at least 1).
    """
    seq = _as_seq(l)
    r = ratio(seq, d)
    mults = seq.multiplicities()
    ones = seq.count(1)
    report = {
        "sequence": seq,
        "d": d,
        "ratio": r,
        "below_106": r < 106,
        "below_60": r < 60 if len(mults) >= 2 else None,
        "below_3": r < 3 if ones >= 2 else None,
        "below_11": r < 11 if ones >= 1 else None,
    }
    report["ok"] = all(v for v in (report["below_106"], report["below_60"],
                                   report["below_3"], report["below_11"]) if v is not None)
    return report


# Domain over which the mixed-subdegree facts are verified exhaustively; the
# d-range collapses to d = 3 by monotonicity of R in d.  Past total 30 only the
# tests' d = 3 scan runs, up to total 200; no code covers totals past 200.
BOUNDS_SCAN_MAX_TOTAL = 30
BOUNDS_SCAN_MAX_D = 20


def mixed_sequence_scan(max_total: int = BOUNDS_SCAN_MAX_TOTAL,
                        max_d: int = BOUNDS_SCAN_MAX_D):
    """All (l, d, R) with 1 in l, some part > 1 and R(l, d) >= 1.

    For each sequence, d runs upward from 3 until R drops below 1 (R is
    strictly decreasing in d when a part exceeds 1), capped at max_d.  R is
    non-increasing in d (s <= v), so a sequence with R(l, 3) < 1 has no hit:
    the pruned walk enumerate_sequences(v, 3) is exact here.
    """
    hits = []
    for v in range(2, max_total + 1):
        for seq in enumerate_sequences(v, 3):
            if seq.parts[0] == 1 or seq.parts[-1] != 1:
                continue
            for d in range(3, max_d + 1):
                r = ratio(seq, d)
                if r < 1:
                    break
                hits.append((seq, d, r))
    return hits
