"""Deciding disjointness of two ellipsoids exactly, with checked certificates.

Write ``d = c2 - c1`` and ``Si = Bi Bi'``. The bodies meet iff ``d`` lies
in the Minkowski sum of the centred bodies, which is the intersection of
the outer ellipsoids ``{z : z' (S1/(1-s) + S2/s)^-1 z <= 1}`` over ``s`` in
(0, 1) (Kurzhanski and Valyi, 1997). Whitening ``S1 + S2`` on its range
turns that into one concave function of ``s`` (Gilitschenski and Hanebeck,
2012): the bodies are disjoint iff ``f(s) = sum_i v_i^2 s(1-s) / (mu_i s +
(1-mu_i)(1-s))`` exceeds 1 somewhere on [0, 1]. Scaling both centres by
t scales the ``v_i`` by t and f by ``t**2``, so one whitening and one
maximization, run to its maximizer, decide the pair at every such scale,
and the maximizer gives both certificate and witness. The one solver,
``_decide_stack``, decides a stack of pairs that share a row count, each
at its own open scales, with one stacked SVD, one stacked ``eigh`` per
rank and array operations for the rest, and gives every pair, bit for
bit, the verdicts it gets as a stack of one. The ellipsoid sweep stacks
the trials whose bisections probe the same projected dimension next,
with a trial's center gaps as the scales. It factors each trial's rows
once, by one Householder QR (``_factor_rows``), which whitens every
prefix of them; a pair whose prefix has safe pivots is whitened from
that QR and needs no SVD, and the others take the SVD path.
``decide_disjoint`` is a stack of one pair at the scale 1. Every verdict
is checked before it is returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import Ball, Ellipsoid

DISJOINT = "Disjoint"
INTERSECTING = "Intersecting"
INDETERMINATE = "Indeterminate"

# relative rounding allowed in an Intersecting witness
WITNESS_TOL = 1e-9
# whitened extents mu within this of 0 or 1 are rounding: that body is flat there
FLAT_TOL = 1e-10
# a trial's R pivots above this fraction of its largest are safe to whiten with
PIVOT_TOL = 1e-8


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a disjointness decision.

    ``certificate`` (Disjoint) is a unit direction whose dual-cone margin
    exceeds its rounding error; ``witness`` (Intersecting) is the pair of
    unit-ball preimages of a common point, up to ``WITNESS_TOL`` relative
    rounding. Touching bodies count as Intersecting. ``norm`` is the factor
    by which both bodies, scaled about their centres, touch: ``sqrt(max f)``
    for Intersecting; for Disjoint, ``<w, d> / (||B1'w|| + ||B2'w||)`` for
    the certificate w, exact up to rounding when the dual certifies
    (``iterations > 0``) and a lower bound otherwise. A margin above the
    largest double is ``inf``, one below the least is 0; the CLI writes
    an infinite margin or norm as null. ``iterations`` counts evaluations of f.
    """

    state: str
    margin: float
    norm: float
    iterations: int
    certificate: np.ndarray | None = None
    witness: tuple[np.ndarray, np.ndarray] | None = None


def _dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for each pair of a stack: ``a`` is (..., p, q) and ``v`` (..., q)."""
    return (a @ v[..., None])[..., 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.sqrt((v * v).sum(axis=-1))


def _scale(a: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``a`` times ``2**e`` in place, one exponent per pair (the first axis), rounded once.

    That is ``np.ldexp``; where every ``2**e`` is a double, the product by
    it rounds the same way and is much faster.
    """
    exps = exps.reshape(exps.shape + (1,) * (a.ndim - 1))
    factors = np.ldexp(1.0, exps)
    if np.all((factors > 0.0) & (factors < math.inf)):
        return np.multiply(a, factors, out=a)
    return np.ldexp(a, exps, out=a)


def _rounding_slack(kappa, gap, fro1, fro2, tcs, rs) -> np.ndarray:
    """Bounds on the rounding error of ``t <w, d> - r ||B1'w|| - r ||B2'w||``.

    One bound per pair of a stack and factor pair ``(t, r)`` (the arrays
    ``tcs`` and ``rs``), each valid for every unit ``w``; ``gap``,
    ``fro1`` and ``fro2`` are each pair's ``||d||``, ``||B1||_F`` and
    ``||B2||_F``. A pair of a scaled family, divided by its own power of
    two, has centres t times the family's, whose difference d is rounded
    from ``c2 - c1``, and shapes r times ``B1`` and ``B2``, where r is a
    power of two, so the products by r are exact; a single pair has ``t =
    r = 1``. A length-n dot product errs by at most ``n u |x|'|y|`` (``u =
    2**-53``, to first order), whatever the order of summation, and for a
    unit w, ``|w|'|d| <= ||d||`` and ``|| |B|'|w| || <= ||B||_F``. With
    ``size = t ||d|| + r ||B1||_F + r ||B2||_F`` and r' the larger column
    count, the first-order errors, in units of u, are:

    - ``n + 2`` times ``t ||d||`` for ``t <w, d>``: n for the dot product,
      one for rounding d and one for the product by t (exact when t is a
      power of two);
    - ``n + r'/2 + 1`` times ``r ||B||_F`` for each norm: n for the entries
      of ``B'w``, r'/2 for the sum of r' squares and one for the square root;
    - at most ``size`` for each of the two subtractions, which are exact
      when r' = 0, since both norms are then 0.

    So the ``t ||d||`` term needs at most ``n + 4`` (``n + 2`` when r' = 0)
    and the norm terms ``n + r'/2 + 3``, and ``kappa = n + r' + 4`` covers
    every term with at least one u to spare for the second-order ones.
    """
    return np.ldexp(kappa * (tcs * gap[:, None] + rs * fro1[:, None] + rs * fro2[:, None]), -53)


def _weights(mu: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s`` and ``1 - s`` over ``mu s + (1 - mu)(1 - s)``, per coordinate.

    One row per pair, each at its own ``s``. Coordinates where body 1
    (``mu = 0``) or body 2 (``mu = 1``) is flat take their limits, so
    ``s`` may be an endpoint of [0, 1].
    """
    s = s[:, None]
    flat1, flat2 = mu == 0.0, mu == 1.0
    den = mu * s + (1.0 - mu) * (1.0 - s)
    a = np.where(flat1, 0.0, np.where(flat2, 1.0, s / den))
    b = np.where(flat2, 0.0, np.where(flat1, 1.0, (1.0 - s) / den))
    return a, b


def _maximize(mu: np.ndarray, v2: np.ndarray):
    """Per row, the maximizer ``s`` of the concave ``f`` on [0, 1].

    Returns the arrays ``(s, f(s), evaluations)``. The sign of ``f'`` at
    each endpoint settles the flat-body cases in closed form; a flat
    coordinate's term is a zero in its place, so every row sums all its
    entries. The other rows run a bracketed Newton iteration on ``f'`` in
    lockstep: each step sums f, ``f'`` and ``f''`` for every row at once,
    then moves each row's own bracket, until its ``f'`` vanishes, its
    Newton step no longer moves ``s``, or its bracket holds no float.
    """
    flat1, flat2 = mu == 0.0, mu == 1.0
    rest = 1.0 - mu
    f0, f1 = np.where(flat2, v2, 0.0).sum(axis=-1), np.where(flat1, v2, 0.0).sum(axis=-1)
    at0 = np.where(flat2, 0.0, v2 / rest).sum(axis=-1) <= f0
    at1 = ~at0 & (np.where(flat1, 0.0, v2 / mu).sum(axis=-1) <= f1)
    s, f = np.where(at0, 0.0, np.where(at1, 1.0, 0.5)), np.where(at0, f0, f1)
    evaluations = np.ones(len(mu), dtype=np.int64)
    spread = v2 * mu * rest
    brackets = {j: (0.0, 1.0) for j in np.flatnonzero(~(at0 | at1)).tolist()}
    for count in itertools.count(1):
        if not brackets:
            return s, f, evaluations
        col = s[:, None]
        pull, other = mu * col, 1.0 - col
        den = pull + rest * other
        square = den * den
        totals = (v2 / den).sum(axis=-1).tolist()
        slopes = (v2 * (rest * other**2 - pull * col) / square).sum(axis=-1).tolist()
        bends = (spread / (square * den)).sum(axis=-1).tolist()
        now = s.tolist()
        for j, (lo, hi) in list(brackets.items()):
            x, slope = now[j], slopes[j]
            f[j] = x * (1.0 - x) * totals[j]
            evaluations[j] = count
            del brackets[j]
            if slope == 0.0:
                continue
            if slope > 0.0:
                lo = x
            else:
                hi = x
            curvature = -2.0 * bends[j]
            step = x - slope / curvature if curvature < 0.0 else 0.5 * (lo + hi)
            if step == x:
                continue
            following = step if lo < step < hi else 0.5 * (lo + hi)
            if lo < following < hi:
                s[j], brackets[j] = following, (lo, hi)


class _Stack:
    """Pairs that share a row count, each at several centre scales, being decided.

    Pair p at scale t is ``(t c1[p], t c2[p], b1[p], b2[p])``. Each pair
    is held divided by its own power of two, as ``decide_disjoint``
    divides a pair, so no scale's norms leave the range of doubles: d in
    units of ``2**shift``, the shapes in units of ``2**base`` (zero shapes
    in the least double's, d = 0 in the shapes'). At scale t the pair
    divided by its ``2**exp`` is ``(tc d, r B1, r B2)`` up to translation,
    and its f is ``ratio**2 = (tc / r)**2`` times that of ``(d, B1, B2)``.
    The products ``t d`` count as exact. ``states`` holds each open
    scale's verdict state as it is decided, and None where not open.
    """

    def __init__(self, c1, c2, b1, b2, scales, open_) -> None:
        c1, c2, b1, b2, scales = (np.asarray(a, dtype=float) for a in (c1, c2, b1, b2, scales))
        (k, m), n1, n2 = c1.shape, b1.shape[-1], b2.shape[-1]
        shape = (k, scales.shape[-1])
        self.open = np.ones(shape, bool) if open_ is None else np.asarray(open_, dtype=bool)
        if not (scales.min(initial=0.0) >= 0.0 and scales.max(initial=0.0) < math.inf):
            raise ValueError("scales out of range: expected finite and >= 0")
        reach_c = np.maximum(np.abs(c1), np.abs(c2)).max(axis=-1, initial=0.0)
        if not np.all(scales.max(axis=-1, initial=0.0) * reach_c < math.inf):
            raise ValueError("scaled centres overflow")
        d = c2 - c1
        # d * 2**half is c2 - c1, halved only where the difference overflows; the
        # halving then loses bits below 2**-1074, far under the rounding of d
        half = ~np.isfinite(d).all(axis=-1)
        if half.any():
            d[half] = np.ldexp(c2[half], -1) - np.ldexp(c1[half], -1)
        both = np.concatenate((b1, b2), axis=-1)
        reach_b = np.maximum(both.max(axis=(-2, -1), initial=0.0), -both.min(axis=(-2, -1), initial=0.0))
        reach_d = np.abs(d).max(axis=-1, initial=0.0)
        base = np.frexp(np.where(reach_b > 0.0, reach_b, math.ulp(0.0)))[1].astype(np.int64)
        shift = np.where(reach_d > 0.0, np.frexp(reach_d)[1] + half, base)
        self.d, self.both, self.n1 = _scale(d, half - shift), _scale(both, -base), n1
        self.base = base
        tops = scales * np.ldexp(reach_d, half - shift)[:, None]
        self.exps = np.where(
            tops > 0.0, np.maximum(shift[:, None] + np.frexp(tops)[1], base[:, None]), base[:, None]
        )
        self.tcs = np.ldexp(scales, shift[:, None] - self.exps)
        self.rs = np.ldexp(1.0, base[:, None] - self.exps)
        # a scale left to the dual has t |d| within a small factor of |B|, or d = 0:
        # its ratio is in range
        self.ratios = np.ldexp(scales, (shift - base)[:, None])
        squares = (self.both * self.both).sum(axis=-2)
        self.gap = _norm(self.d)
        self.fro1, self.fro2 = np.sqrt(squares[:, :n1].sum(axis=-1)), np.sqrt(squares[:, n1:].sum(axis=-1))
        kappa = m + max(n1, n2) + 4
        self.slacks = _rounding_slack(kappa, self.gap, self.fro1, self.fro2, self.tcs, self.rs)
        self.states = np.full(shape, None, dtype=object)
        self.margins, self.norms = np.zeros(shape), np.zeros(shape)
        self.iterations = np.zeros(shape, dtype=np.int64)
        self.certificates = np.zeros(shape + (m,))
        self.witnesses = np.zeros(shape + (n1,)), np.zeros(shape + (n2,))
        self.decomposed = np.zeros(k, bool)

    def certify(self, direction, pairs, trying, evaluations) -> np.ndarray:
        """Disjoint, with the unit direction as certificate, for each scale of
        ``trying`` whose margin exceeds its slack; returns where that held.

        ``direction`` holds one row for each pair of ``pairs``. A margin
        within ``_rounding_slack`` of zero proves nothing, so those scales go
        on to the witness path, where touching bodies intersect.
        """
        length = _norm(direction)
        # a zero direction proves nothing, and its margins are NaN
        w = direction / length[:, None]
        image = (w[:, None, :] @ self.both[pairs])[:, 0]
        image *= image
        reach1, reach2 = np.sqrt(image[:, : self.n1].sum(axis=-1)), np.sqrt(image[:, self.n1 :].sum(axis=-1))
        tcs, rs = self.tcs[pairs], self.rs[pairs]
        scaled = tcs * (w * self.d[pairs]).sum(axis=-1)[:, None]
        margin = scaled - rs * reach1[:, None] - rs * reach2[:, None]
        won = trying & (margin > self.slacks[pairs])
        if won.any():
            row, i = np.nonzero(won)
            p, scaled, margin = np.arange(len(self.d))[pairs][row], scaled[row, i], margin[row, i]
            self.states[p, i] = DISJOINT
            self.margins[p, i] = np.ldexp(margin, self.exps[p, i])
            self.norms[p, i] = np.where(scaled > margin, scaled / (scaled - margin), math.inf)
            self.iterations[p, i] = evaluations if np.isscalar(evaluations) else evaluations[row]
            self.certificates[p, i] = w[row]
        return won

    def decide(self, factors) -> None:
        """Decide every open scale: the centre line ``d / ||d||`` may separate;
        else ``whiten`` decides, with one stacked ``eigh`` for the pairs whose
        trial QR in ``factors`` (see ``_decide_stack``) is safe at this prefix
        and one for each rank among the others, whose ``[B1 B2]`` is
        decomposed by a thin SVD."""
        undecided = self.open & ~self.certify(self.d, slice(None), self.open, 0)
        self.decomposed = undecided.any(axis=-1)
        todo = np.flatnonzero(self.decomposed)
        if factors is not None:
            rows, inverse, exps, safe = factors
            fast, todo = todo[safe[todo]], todo[~safe[todo]]
            if fast.size:
                # the pair's [B1 B2], its trial's first m rows, is 2**e R_m' Q_m';
                # in units of 2**base, W = 2**(e - base) R_m' whitens S1 + S2 = W W'
                powers = np.ldexp(1.0, exps[fast] - self.base[fast])[:, None]
                if fast.size < len(self.d):
                    rows, inverse = rows[fast], inverse[fast]
                self.whiten(fast, inverse, powers, rows, undecided[fast])
        if not todo.size:
            return
        # [B1 B2] = U diag(sigma) [P1 P2] whitens S1 + S2 = U diag(sigma^2) U' on
        # its range without squaring its condition number, as eigh(S1 + S2) would
        both = self.both[todo]
        basis, sigma, rows = np.linalg.svd(both, full_matrices=False)
        ranks = np.sum(sigma > sigma[:, :1] * max(both.shape[1:]) * np.finfo(float).eps, axis=-1)
        for rank in sorted(set(ranks.tolist())):
            group = ranks == rank
            at, u, sg, v = todo[group], basis[group], sigma[group], rows[group]
            # contiguous, so that a subset of the pairs keeps the layout its
            # products are computed with
            u, sg, v = (np.ascontiguousarray(a) for a in (u[:, :, :rank], sg[:, :rank], v[:, :rank]))
            self.whiten(at, u, sg, v, undecided[at])

    def whiten(self, pairs, basis, sigma, rows, undecided) -> None:
        """Decide the scales ``undecided`` of ``pairs``, whose ``[B1 B2]`` all
        have rank r and factor as ``W rows``, ``W W' = S1 + S2``.

        ``rows`` (r, n1 + n2) has orthonormal rows ``[P1 P2]``; ``basis``
        (m, r) and ``sigma`` (r, or 1 to broadcast) give the whitened centre
        ``basis' d / sigma``, which is ``W^+ d``, and ``W^+' z = basis (z /
        sigma)``. From a thin SVD they are ``U``, the singular values and
        ``V'``; from a trial QR, where ``W = 2**k R'``, the leading block of
        ``R^-1``, ``2**k`` and the first columns of Q, transposed.

        A component of d outside the range of ``S1 + S2`` separates; else
        the maximum of f decides each scale: above ``1 / ratio**2``, ``lam
        = (S1/(1-s) + S2/s)^-1 d`` at the maximizer s separates, and at most
        that, the same s gives the witness. Every pair is maximized once and
        stays in the stacked arrays to the end: the mask ``undecided`` leaves
        out the scales the residual or ``lam`` has decided, and only open
        scales are written.
        """
        d = self.d[pairs]
        along = _dot(basis.swapaxes(-1, -2), d)
        if basis.shape[-1] < basis.shape[-2]:
            # at full row rank the residual is rounding, which proves nothing
            undecided &= ~self.certify(d - _dot(basis, along), pairs, undecided, 0)
        p1, p2 = rows[:, :, : self.n1], rows[:, :, self.n1 :]
        mu, rotation = np.linalg.eigh(p1 @ p1.swapaxes(-1, -2))
        mu = np.where(mu < FLAT_TOL, 0.0, np.where(mu > 1.0 - FLAT_TOL, 1.0, mu))
        coords = _dot(rotation.swapaxes(-1, -2), along / sigma)
        v2 = coords**2
        ratios = self.ratios[pairs]
        s, f, evaluations = _maximize(mu, v2)
        a, b = _weights(mu, s)
        beyond = undecided & (ratios * ratios * f[:, None] > 1.0)
        if beyond.any():
            # s (1 - s) / den, which is 1 - s where body 2 is flat
            weight = np.where(mu == 1.0, (1.0 - s[:, None]) * a, s[:, None] * b)
            lam = _dot(basis, _dot(rotation, weight * coords) / sigma)
            undecided &= ~self.certify(lam, pairs, beyond, evaluations)
        x1 = _dot(p1.swapaxes(-1, -2), _dot(rotation, a * coords))
        y1 = -_dot(p2.swapaxes(-1, -2), _dot(rotation, b * coords))
        reach = np.maximum(_norm(x1), _norm(y1))
        # the witness (ratio x1, ratio y1) and its residual at every scale of
        # each pair; the scales already decided get ratio 0
        n1, both = self.n1, self.both[pairs]
        tc, r = self.tcs[pairs], self.rs[pairs]
        ratio = np.where(undecided, ratios, 0.0)
        x, y = ratio[:, :, None] * x1[:, None, :], ratio[:, :, None] * y1[:, None, :]
        image1 = x @ both[:, :, :n1].swapaxes(-1, -2)
        image2 = y @ both[:, :, n1:].swapaxes(-1, -2)
        residual = _norm(r[:, :, None] * image1 - r[:, :, None] * image2 - tc[:, :, None] * d[:, None, :])
        size = np.maximum(np.maximum(tc * self.gap[pairs][:, None], r * self.fro1[pairs][:, None]),
                          r * self.fro2[pairs][:, None])
        witnessed = (ratio * reach[:, None] <= 1.0 + WITNESS_TOL) & (residual <= WITNESS_TOL * size)
        row, i = np.nonzero(undecided)
        p = pairs[row]
        self.states[p, i] = np.where(witnessed[row, i], INTERSECTING, INDETERMINATE)
        self.norms[p, i] = ratio[row, i] * np.sqrt(f[row])
        self.iterations[p, i] = evaluations[row]
        self.witnesses[0][p, i], self.witnesses[1][p, i] = x[row, i], y[row, i]

    def verdict(self, p: int, i: int) -> SeparationVerdict:
        """The verdict of pair p at scale i, which must be open."""
        state = self.states[p, i]
        return SeparationVerdict(
            state=state,
            margin=float(self.margins[p, i]),
            norm=float(self.norms[p, i]),
            iterations=int(self.iterations[p, i]),
            certificate=self.certificates[p, i] if state == DISJOINT else None,
            witness=(self.witnesses[0][p, i], self.witnesses[1][p, i])
            if state == INTERSECTING
            else None,
        )


def _factor_rows(b1, b2):
    """One Householder QR per trial that whitens every prefix of its rows.

    ``b1`` is (k, m, n1) and ``b2`` (k, m, n2), with ``m <= n1 + n2``:
    trial p's ``[B1 B2]``, divided by ``2**e[p]`` for the binary exponent
    of its largest entry, so that nothing depends on its scale, is ``R'
    Q'``. ``R'`` is lower triangular, so the first M rows are ``R_M' Q_M'``
    with ``R_M`` the leading M-by-M block of R and ``Q_M`` the first M
    columns of Q: ``R_M'`` whitens their ``S1 + S2``, ``Q_M'`` holds their
    ``[P1 P2]`` and ``R_M^-1`` is the leading block of ``R^-1`` (Golub and
    Van Loan, Matrix Computations, 5.2). Unlike a Gram matrix's Cholesky
    factor, this does not square the condition number. A prefix is safe
    when each of its pivots exceeds ``PIVOT_TOL`` times the trial's
    largest; where one does not, such as a rank-deficient prefix, R is
    inverted with its rows from that pivot on replaced by the identity's,
    which leaves the safe leading blocks of ``R^-1`` as they are.

    Returns ``(Q', R^-1, e, safe)``: (k, m, n1 + n2), (k, m, m), and the
    exponents and safe prefix lengths, (k,) each.
    """
    both = np.concatenate((b1, b2), axis=-1)
    exps = np.frexp(np.abs(both).max(axis=(-2, -1), initial=0.0))[1]
    q, r = np.linalg.qr(_scale(both, -exps).swapaxes(-1, -2))
    pivots = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    least = np.minimum.accumulate(pivots, axis=-1)
    safe = np.sum(least > PIVOT_TOL * pivots.max(axis=-1, keepdims=True), axis=-1)
    trial, row = np.nonzero(np.arange(r.shape[-1]) >= safe[:, None])
    r[trial, row] = np.eye(r.shape[-1])[row]
    # R^-1 column by column, as LAPACK's trti2 forms it, with no LU
    # factorization as np.linalg.inv makes: column j is -R_j^-1 r_j / r_jj,
    # R_j and r_j the leading j-by-j block and column j above the pivot,
    # whose inverse the earlier columns hold
    inverse = np.zeros_like(r)
    for j, pivot in enumerate(np.diagonal(r, axis1=-2, axis2=-1).T):
        inverse[:, j, j] = 1.0 / pivot
        inverse[:, :j, j] = _dot(inverse[:, :j, :j], r[:, :j, j]) * (-1.0 / pivot)[:, None]
    return np.ascontiguousarray(q.swapaxes(-1, -2)), inverse, exps, safe


def _prefix_factors(factors, pairs, m: int):
    """The ``_factor_rows`` of trials ``pairs`` restricted to their first m rows,
    as ``_decide_stack`` takes them: the first m rows of Q', the leading
    m-by-m blocks, the exponents and whether the prefix is safe."""
    rows, inverse, exps, safe = factors
    return rows[pairs, :m], inverse[pairs, :m, :m], exps[pairs], safe[pairs] >= m


def _decide_stack(c1, c2, b1, b2, scales, open_=None, factors=None) -> _Stack:
    """Decide a stack of pairs, each at several centre scales, in one pass.

    ``c1`` and ``c2`` are (k, m), ``b1`` is (k, m, n1) and ``b2`` (k, m,
    n2): k pairs that share a row count. ``scales`` is (g,) or (k, g), and
    pair p at scale t is ``(t c1[p], t c2[p], b1[p], b2[p])``; ``open_``
    (k, g), all true by default, says which of them to decide. ``factors``,
    if given, is ``_prefix_factors`` of the trials whose first m rows the
    pairs' shapes are: each pair whose prefix is safe is whitened from
    them, and the others, as without ``factors``, by a thin SVD.

    Scaling both centres by t scales d and its whitened coordinates by t, so
    ``f_t(s) = t**2 f_1(s)``, and a pair at scale t is disjoint iff ``max
    f_1 > 1 / t**2``. For each pair, one decomposition of ``[B1 B2]`` and
    one maximization of ``f_1``, run to its maximizer, serve every scale. A
    direction w certifies each scale whose margin ``t <w, d> - ||B1'w|| -
    ||B2'w||`` exceeds that scale's ``_rounding_slack``, and the witness at
    the maximizer is ``(t x_1, t y_1)``, checked for each scale on its own
    pair. Only ``d = c2 - c1`` and the shapes enter, and d is formed before
    anything is scaled, so centres far larger than their gap keep it.

    The pairs share each step: one stacked ``eigh`` for the pairs whitened
    from ``factors``, one stacked SVD and one stacked ``eigh`` for each rank
    among the others that need one, and one array operation for the rest.
    A pair that the residual or ``lam`` decides keeps its place in the
    stacked arrays, masked out of the later steps, and is never sliced out.
    Each pair's verdicts are bit for bit those it gets as a stack of one
    (with its own ``factors``): every operation is elementwise, a sum over
    one pair's entries, which numpy takes in the same order whatever else
    is in the stack, or a stacked ``matmul``, ``svd`` or ``eigh``, which it
    computes matrix by matrix, the same way for matrices laid out alike; so
    every operand of a product is C-contiguous or a view of a C-contiguous
    stack, and pairs of different rank are never padded to a common size.
    ``ValueError`` is raised when a scale is negative or not finite, or a
    pair's largest scale times its centres overflows.

    Returns the decided ``_Stack``: its ``states`` (k, g), ``decomposed``
    (k,), whether each pair was whitened, which it is unless the centre
    line certifies each of its open scales, and ``verdict(p, i)``.
    """
    with np.errstate(all="ignore"):
        stack = _Stack(c1, c2, b1, b2, scales, open_)
        stack.decide(factors)
    return stack


def decide_disjoint(e1: Ellipsoid | Ball, e2: Ellipsoid | Ball) -> SeparationVerdict:
    """Decide whether two bodies are disjoint, exactly, with a checked certificate.

    In order: the centre-line direction ``d / ||d||`` may separate; a
    component of ``d`` outside the range of ``S1 + S2`` separates; else
    the maximum of ``f`` decides. Above 1, ``lam = (S1/(1-s) + S2/s)^-1 d``
    separates; at most 1, the maximizer ``s`` gives the common point
    ``c1 + B1 x = c2 + B2 y`` with ``x = B1' lam / (1-s)`` and ``y = -B2'
    lam / s``, where ``||x|| = ||y|| = sqrt(max f)`` at an interior
    maximum. A certificate w is returned only if its margin ``<w, d> -
    ||B1'w|| - ||B2'w||`` exceeds the margin's forward rounding error
    bound, a witness only if it reproduces a common point up to
    ``WITNESS_TOL``; Indeterminate is left when neither check accepts.
    Touching bodies intersect. The decision runs on ``d`` and the shapes,
    each divided by a power of two (see ``binary_exponent``), which is
    exact and keeps every norm in range, so it depends neither on the
    pair's scale nor on how far the centres outweigh the shapes or their
    gap. It is the stack of one pair at the one scale 1.
    """
    e1, e2 = (e.to_ellipsoid() if isinstance(e, Ball) else e for e in (e1, e2))
    if e1.ambient_dim != e2.ambient_dim:
        raise ValueError(f"ambient dimensions differ: got {e1.ambient_dim} and {e2.ambient_dim}")
    stack = _decide_stack(e1.center[None], e2.center[None], e1.shape[None], e2.shape[None], (1.0,))
    return stack.verdict(0, 0)
