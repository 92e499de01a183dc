"""Posterior prediction, cross-validation splits, scoring, coherence curves.

Interpolation predicts at unmonitored locations inside the training period:
the regression mean plus a draw of the residual field given that day's
training data, with the field at the observed sites integrated out
(the marginal-model prediction of spBayes ``spPredict``; Banerjee, Carlin &
Gelfand 2014, ch. 6).  Forecasting predicts future days, where the residual
field is unconditioned: its mean is zero and only its variance enters the
predictive draws.  Point predictions are reported on the original
concentration scale as exp of the posterior median of the log-scale draws.

Targets (:func:`prediction_targets`) and predictions are record arrays, a
row per target: :func:`predict` returns the target columns with the
prediction's columns beside them, and :func:`score` pairs them with the
held-out observation records by (site, day, pollutant).  Prediction is
vectorised over targets.  Design rows are gathered by each
target's cell from the context's :class:`~specdown.stations.CellTable`,
the field or covariate values at station cells, with
:func:`~specdown.stations.design_rows`, which also makes the training
design, and standardized as the training design was, one slab of whole
chunks (below) at a time.
The marginal covariances of the interpolation days' observations, C + D
with C the LMC block of the observed sites and D the nugget diagonal, one
(n, n) matrix per posterior draw and day layout, are factored as
C + D = L L^T by :class:`~specdown.lmc.DayBlocks`, as in the batch sampler.
Days whose observations hold identical rows, the same sites and pollutants
in the same order, share one factor; the same sites in another order do
not.  The jitter rule of :func:`~specdown.lmc.chol_pd` acts on the draws
and layouts of one block size at once: when one fails plain Cholesky, all
are jittered.  With r = y - X beta a day's residuals
and c0 the cross-covariances between a target and the sites, the
conditional mean of the field is (L^{-1} c0) . (L^{-1} r) =
c0 . (C + D)^{-1} r and its variance sigma_kk^2 - ||L^{-1} c0||^2, both by
batched matrix products over draws and targets.  Targets go through in
chunks of consecutive targets, sized so that no per-draw temporary holds
more than ``PREDICT_CHUNK_VALUES`` floats.  The design rows are built in
slabs of whole chunks, each of at most ``PREDICT_CHUNK_VALUES`` floats, or
of one chunk when a chunk's rows alone hold more; each chunk slices its
rows from its slab.  Design rows are built row by row, so the slabs do not
change their values.  Noise is drawn chunk by chunk in target
order, so the random stream does not depend on the chunk size, and the
summaries agree across chunk sizes to rounding: a chunk's matrix products
round differently with its row count.  A chunk's draws are averaged as
drawn, then sorted once along the draw axis, and the 2.5, 50 and 97.5%
points are read from the sorted rows by numpy's ``linear`` rule, the values
``np.percentile`` gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filters import MAX_MAGNITUDE, SpectralBasis, period_of
from .grid import GridSpec
from .inference import BatchPosterior, derive_rng
from .lmc import DayBlocks, LmcKernel
from .stations import (
    CellTable,
    DesignMatrix,
    as_records,
    cell_indices,
    design_rows,
    records,
    site_measures,
)

__all__ = [
    "prediction_targets",
    "PredictionContext",
    "Scorecard",
    "cv_split",
    "split_season",
    "predict",
    "score",
    "coherence_curve",
    "aggregate_means",
]

TRAIN_FRACTION = 78.0 / 90.0

#: Largest number of float64 values in one per-draw prediction temporary
#: and in one slab of design rows.  Targets are processed in chunks sized
#: so that the (I, T, n) cross-covariances of I draws, T targets and n
#: sites of a day stay under it, and their design rows are built in slabs
#: of whole chunks under it (one chunk when a chunk's rows alone are more),
#: which bounds the memory a prediction call adds beyond its per-day
#: factors.
PREDICT_CHUNK_VALUES = 2**16

#: Magnitudes per coherence curve, evenly spaced over (0, MAX_MAGNITUDE].
COHERENCE_POINTS = 100

#: Family-wise level of the Bonferroni-corrected coefficient intervals.
COHERENCE_ALPHA = 0.05


def prediction_targets(x, y, pollutant_id, day, mode, site_id) -> np.recarray:
    """Prediction targets as one record array, a scalar broadcast to the
    others' length; :func:`predict` checks each ``mode`` is interpolation
    or forecast."""
    return records(
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        pollutant_id=np.asarray(pollutant_id, dtype=int),
        day=np.asarray(day, dtype=int),
        mode=np.asarray(mode, dtype=str),
        site_id=np.asarray(site_id, dtype=str),
    )


@dataclass(frozen=True)
class PredictionContext:
    """Inputs needed to rebuild design rows at target locations.

    ``table`` holds the values the rows read, at station cells: every
    target must lie in a cell it holds.  Interpolation with a spatial
    posterior conditions on the training data: ``design`` then holds the
    standardized training rows and ``y`` their responses, aligned."""

    design: DesignMatrix
    spec: GridSpec
    train_days: tuple
    table: CellTable
    y: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Cross-validation plumbing
# ---------------------------------------------------------------------------


def cv_split(sites, folds: int = 5, seed: int = 0) -> np.ndarray:
    """Stratified random fold assignment: the fold id of each of the site
    records, in their order.

    Stations are stratified by what they measure (total only, species only,
    both; pollutant 0 is the total); each stratum, sorted by site id, is
    shuffled and dealt round-robin so per-stratum fold sizes differ by at
    most one.  A stratum smaller than the fold count is assigned round-robin
    with a warning.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = derive_rng(seed, 101)
    ids, held = site_measures(sites)
    total, species = held[:, ids == 0].any(axis=1), held[:, ids != 0].any(axis=1)
    strata = np.where(total & species, "both", np.where(total, "total-only", "species-only"))
    by_id = np.argsort(sites.site_id)
    assignment = np.zeros(len(sites), dtype=int)
    for stratum in ("total-only", "species-only", "both"):
        members = by_id[strata[by_id] == stratum]
        if not members.size:
            warnings.warn(f"stratum {stratum!r} is empty", stacklevel=2)
            continue
        if members.size < folds:
            warnings.warn(
                f"stratum {stratum!r} has {members.size} station(s), fewer than "
                f"{folds} folds; assigning round-robin",
                stacklevel=2,
            )
        assignment[members[rng.permutation(members.size)]] = np.arange(members.size) % folds
    return assignment


def split_season(days) -> tuple:
    """Train/test split of one season's day slots: first 78 and last 12 of 90.

    Shorter spans split proportionally (floor of 78/90) with a warning; day
    sets must be consecutive.
    """
    days = [int(d) for d in days]
    if len(days) < 2:
        raise ValueError("need at least 2 days to split")
    for a, b in zip(days, days[1:]):
        if b != a + 1:
            raise ValueError(f"day set is not consecutive at {a} -> {b}")
    n = len(days)
    if n == 90:
        cut = 78
    elif n > 90:
        warnings.warn(f"season has {n} days; using first 78 / last 12", stacklevel=2)
        return tuple(days[:78]), tuple(days[-12:])
    else:
        cut = max(int(np.floor(n * TRAIN_FRACTION)), 1)
        warnings.warn(
            f"season has {n} < 90 days; proportional split {cut}/{n - cut}", stacklevel=2
        )
    return tuple(days[:cut]), tuple(days[cut:])


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _design_rows(ctx: PredictionContext, cells, pollutant, day) -> np.ndarray:
    """Design rows of targets in the given cells, standardized like the
    training set; shape (T, p).  A covariate column is zero where the
    target's pollutant is not the column's."""
    design = ctx.design
    rows = design_rows(design.columns, ctx.table, cells, pollutant, day)
    design.scale_rows(rows, pollutant)
    return rows


def _sorted_quantiles(ranked: np.ndarray, q) -> np.ndarray:
    """Quantiles at fractions ``q`` of each row of ``ranked``, whose rows are
    sorted ascending with any NaN last, as ``np.sort`` leaves them; shape
    (len(q), rows).

    The result equals ``np.percentile(x, 100 * q, axis=1)`` of the unsorted
    rows bit for bit, up to the sign of a zero (a sort and numpy's partition
    may order -0.0 and 0.0 either way).  It follows numpy's ``linear`` rule
    (Hyndman & Fan 1996, type 7): virtual index (n - 1) q, gamma its
    fractional part, and numpy's two-branch interpolation, a + (b - a) gamma,
    or b - (b - a)(1 - gamma) where gamma >= 0.5.  An index at or past
    n - 1 takes the last value as both neighbours, with gamma the index
    plus one, as numpy's does; a row that holds NaN gives NaN.
    """
    n = ranked.shape[1]
    virtual = (n - 1) * np.asarray(q, dtype=float)
    below = np.floor(virtual).astype(int)
    last = virtual >= n - 1
    below[last] = -1
    above = np.where(last, -1, below + 1)
    gamma = (virtual - below)[:, None]
    a, b = ranked[:, below].T, ranked[:, above].T
    diff = b - a
    out = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    out[:, np.isnan(ranked[:, -1])] = np.nan
    return out


def _invert_lower(L: np.ndarray) -> None:
    """Invert each lower-triangular factor of a (..., n, n) stack in place.

    Blockwise, [[A, 0], [B, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]]:
    batched matrix products with about a quarter of the flops of a general
    inverse, and no temporary larger than a quarter of the stack.
    """
    n = L.shape[-1]
    if n <= 16:
        L[...] = np.linalg.inv(L)
        return
    h = n // 2
    _invert_lower(L[..., :h, :h])
    _invert_lower(L[..., h:, h:])
    L[..., h:, :h] = np.matmul(L[..., h:, h:], np.matmul(L[..., h:, :h], L[..., :h, :h]))
    L[..., h:, :h] *= -1.0


class _Conditioner:
    """The training data of the interpolation days ``days``, conditioned on per draw.

    :class:`~specdown.lmc.DayBlocks` factors C + D = L L^T of the days'
    observations per draw and distinct day layout, and the factors are
    inverted in place.  ``days`` maps each day to its sites, its
    pollutants, its layout's L^{-1} (I, n, n), one array shared by the
    days of that layout, and its whitened residuals L^{-1} (y - X beta)
    (I, n, 1).  ``beta`` (I, p), ``nugget2`` (I, K), ``cross`` (I, K, K)
    and ``rate`` (I,) hold the draws.
    """

    def __init__(self, ctx: PredictionContext, days, beta, nugget2, cross, rate):
        self.cross = cross
        self.rate = rate
        rows = ctx.design.rows_for_days(days)
        layout = ctx.design.layout(rows)
        blocks = DayBlocks(layout, cross.shape[-1])
        # the (I, U, n, n) stacks are the largest arrays here: build C + D
        # over the correlations and drop it before inverting the factors
        covs = blocks.corr(rate)
        chols = blocks.factor(blocks.cov(cross, covs, out=covs), nugget2)
        del covs
        self.widest = blocks.rows[-1].shape[1]
        self.days = {}
        for day_rows, member, chol in zip(blocks.rows, blocks.member, chols):
            _invert_lower(chol)
            inverses = list(np.swapaxes(chol, 0, 1))  # chol[:, u], a view per layout
            for r, u in zip(day_rows, member):
                resid = ctx.y[rows[r]] - beta @ ctx.design.X[rows[r]].T  # (I, n)
                z = np.matmul(inverses[u], resid[..., None])
                day = int(layout.day[r[0]])
                self.days[day] = layout.coords[r], layout.pollutant[r], inverses[u], z

    def conditional(self, day, x, y, k):
        """Conditional mean and variance of the field on ``day`` at points
        (x, y) of pollutants k, per draw; each of shape (I, T)."""
        coords, pol, chol_inv, z = self.days[day]
        kernel = LmcKernel(np.column_stack([x, y]), k, self.cross.shape[-1], coords, pol)
        c0 = kernel.cov(self.cross, kernel.corr(self.rate))  # (I, T, n)
        v = np.matmul(c0, np.swapaxes(chol_inv, 1, 2))  # rows (L^{-1} c0)^T
        mean = np.matmul(v, z)[..., 0]
        var = self.cross[:, k, k] - np.einsum("itn,itn->it", v, v)
        return mean, var


def predict(
    posterior: BatchPosterior,
    targets,
    ctx: PredictionContext,
    rng: np.random.Generator | None = None,
    max_kriging_draws: int | None = None,
) -> np.recarray:
    """Predictive draws per target of the records ``targets`` (see
    :func:`prediction_targets`) or a nonempty list of their rows.  Returns one
    prediction record per target, in order: the target's columns, then the
    mean and the 2.5% and 97.5% percentiles of its log-scale draws,
    ``mean_log``, ``lo_log`` and ``hi_log``, and ``point``, exp of their
    median.

    The regression mean uses the posterior coefficient draws against the
    target's standardized design row.  With a spatial posterior,
    interpolation targets add a draw of the residual field from its
    conditional given that day's training data, y - X beta, per posterior
    draw: the field at the observed sites is integrated out rather than
    sampled, which leaves the predictive distribution unchanged.  Their days
    must lie in ``posterior.days``, and ``ctx`` must carry the training
    design and responses.  Forecast targets add an unconditional residual
    draw (zero mean, same-site variance).  All draws include nugget noise,
    so intervals are predictive for a new observation.

    Noise is drawn target by target in ``targets`` order: for a spatial
    posterior a residual block of one normal per draw, then a nugget block;
    otherwise the nugget block only.  Targets are processed in chunks of
    consecutive targets, so the chunk size does not change the random
    stream, and the summaries agree across chunk sizes to rounding; their
    design rows are built in slabs of whole chunks.  Each chunk's draws are
    sorted once for their percentiles (see :func:`_sorted_quantiles`).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    targets = as_records(targets)
    x, y, k, day = targets.x, targets.y, targets.pollutant_id, targets.day
    modes = np.isin(targets.mode, ("interpolation", "forecast"))
    if not modes.all():
        bad = str(targets.mode[np.argmin(modes)])
        raise ValueError(f"mode must be interpolation or forecast, got {bad!r}")
    interp = targets.mode == "interpolation"
    in_train = np.isin(day, np.array([int(d) for d in ctx.train_days], dtype=int))
    bad = np.flatnonzero(interp != in_train)
    if bad.size:
        where = "outside" if interp[bad[0]] else "inside"
        mode = targets.mode[bad[0]]
        raise ValueError(f"{mode} target day {day[bad[0]]} {where} the training period")
    labels = np.where(targets.site_id == "", "target", targets.site_id)
    cells = cell_indices(x, y, ctx.spec, labels)

    beta = posterior.beta_draws()
    n_draws = beta.shape[0]
    if max_kriging_draws is not None and max_kriging_draws < n_draws:
        draw_idx = np.unique(np.linspace(0, n_draws - 1, max_kriging_draws).astype(int))
    else:
        draw_idx = np.arange(n_draws)
    beta = beta[draw_idx]
    nugget2 = posterior.nugget2_draws()[draw_idx]  # (I, K)
    nugget_sd = np.sqrt(nugget2)
    n_blocks = 1
    kriging = None
    if posterior.has_spatial:
        n_blocks = 2
        lower = posterior.coreg_draws()[draw_idx]
        cross = lower @ np.swapaxes(lower, 1, 2)
        marginal_sd = np.sqrt(np.einsum("ikm,ikm->ik", lower, lower))  # (I, K)
        interp_days = np.unique(day[interp]).tolist()
        if interp_days:
            if ctx.y is None or len(ctx.y) != ctx.design.n:
                raise ValueError("interpolation needs the training responses aligned with ctx.design")
            for d in interp_days:
                if d not in posterior.days:
                    raise ValueError(f"interpolation day {d} is outside the posterior's days")
            rate = posterior.decay_draws()[draw_idx]
            kriging = _Conditioner(ctx, interp_days, beta, nugget2, cross, rate)

    I, p = draw_idx.size, beta.shape[1]
    widest = max(n_blocks, kriging.widest if kriging is not None else 0)
    step = max(1, PREDICT_CHUNK_VALUES // max(I * widest, p))
    slab = step * max(1, PREDICT_CHUNK_VALUES // (step * p))  # whole chunks of design rows
    summary = np.empty((4, len(targets)))  # mean_log, lo_log, hi_log, point
    for start in range(0, len(targets), step):
        chunk = slice(start, start + step)
        if start % slab == 0:
            span = slice(start, start + slab)
            rows = _design_rows(ctx, cells[span], k[span], day[span])  # (<= slab, p)
        kc, dc = k[chunk], day[chunk]
        noise = rng.standard_normal((kc.size, n_blocks, I))
        draws = rows[start % slab : start % slab + step] @ beta.T  # (T, I)
        if posterior.has_spatial:
            resid_mean = np.zeros_like(draws)
            resid_sd = marginal_sd[:, kc].T
            for d in kriging.days if kriging is not None else ():
                sel = np.flatnonzero(interp[chunk] & (dc == d))
                if sel.size:
                    mean, var = kriging.conditional(d, x[chunk][sel], y[chunk][sel], kc[sel])
                    resid_mean[sel] = mean.T
                    resid_sd[sel] = np.sqrt(np.maximum(var, 0.0)).T
            draws = draws + (resid_mean + resid_sd * noise[:, 0])
        draws = draws + nugget_sd[:, kc].T * noise[:, -1]
        summary[0, chunk] = draws.mean(axis=1)  # before the sort, which would reorder its sum
        draws.sort(axis=1)
        summary[1, chunk], med, summary[2, chunk] = _sorted_quantiles(draws, [0.025, 0.5, 0.975])
        summary[3, chunk] = np.exp(med)
    mean_log, lo_log, hi_log, point = summary
    columns = {name: targets[name] for name in targets.dtype.names}
    return records(**columns, mean_log=mean_log, lo_log=lo_log, hi_log=hi_log, point=point)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scorecard:
    """Per-pollutant RMSE (original scale) and Pearson correlation."""

    variant: str
    fold: int
    rmse: dict
    corr: dict

    def __post_init__(self):
        for k, r in self.rmse.items():
            if r < 0:
                raise ValueError(f"negative RMSE for pollutant {k}")
        for k, c in self.corr.items():
            if c is not None and not -1.0 <= c <= 1.0 + 1e-12:
                raise ValueError(f"correlation out of range for pollutant {k}")


def _last_match(rows, table) -> np.ndarray:
    """Index of the last record of ``table`` with each row's (site_id, day,
    pollutant_id), or -1 where it has none."""
    names = ("site_id", "day", "pollutant_id")
    keys = records(**{name: np.concatenate([table[name], rows[name]]) for name in names})
    _, code = np.unique(keys, return_inverse=True)
    last = np.full(code.size, -1)
    np.maximum.at(last, code[: len(table)], np.arange(len(table)))
    return last[code[len(table) :]]


def score(predictions, observed_raw, variant: str = "", fold: int = -1) -> Scorecard:
    """Score prediction records against held-out raw-scale observations.

    ``observed_raw`` holds observation records (site_id, day, pollutant_id,
    value) with values in original units; a prediction is paired with the
    last of them that has its site, day and pollutant, if any.  RMSE is
    computed on the original scale; pollutants with fewer than 2 pairs get
    a missing correlation.
    """
    match = _last_match(predictions, observed_raw)
    rmse, corr = {}, {}
    for k in np.unique(predictions.pollutant_id[match >= 0]).tolist():
        sel = (match >= 0) & (predictions.pollutant_id == k)
        pred, obs = predictions.point[sel], observed_raw.value[match[sel]]
        rmse[k] = float(np.sqrt(np.mean((pred - obs) ** 2)))
        if pred.size >= 2 and pred.std() > 0 and obs.std() > 0:
            corr[k] = float(np.corrcoef(pred, obs)[0, 1])
        else:
            corr[k] = None
    return Scorecard(variant=variant, fold=fold, rmse=rmse, corr=corr)


def aggregate_means(predictions, spec: GridSpec) -> list:
    """Group-by-mean export rows: quadrant region x pollutant means of the
    ``point`` column of prediction records with ``x``, ``y`` and
    ``pollutant_id`` columns.

    Returns rows (region, pollutant_id, n, mean_predicted) sorted by
    (region, pollutant_id).  Each group's values are averaged in the
    records' order.
    """
    if not len(predictions):
        return []
    half_x, half_y = spec.extent_km[0] / 2.0, spec.extent_km[1] / 2.0
    west, south = ~(predictions.x >= half_x), ~(predictions.y >= half_y)
    order = np.lexsort((predictions.pollutant_id, south, west))  # stable: records' order in a group
    keys = np.column_stack([west, south, predictions.pollutant_id])[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    groups = np.split(predictions.point[order], starts[1:])
    return [
        ("EW"[w] + "NS"[s], k, len(group), float(np.mean(group)))
        for (w, s, k), group in zip(keys[starts].tolist(), groups)
    ]


# ---------------------------------------------------------------------------
# Coherence curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceCurve:
    """Posterior summary of the frequency-dependent association A_kj."""

    k: int
    j: int
    magnitudes: np.ndarray
    periods_km: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    significant: bool
    coef_significant: np.ndarray


def coherence_curve(
    posterior: BatchPosterior,
    k: int,
    j: int,
    basis: SpectralBasis,
    design: DesignMatrix,
    dx: float,
) -> CoherenceCurve:
    """Curve of the association between observed pollutant k and field j.

    Per draw the curve at each of ``COHERENCE_POINTS`` magnitudes is the
    basis expansion of the (k, j) coefficients, mapped back to the raw
    covariate scale with the standardization recorded in ``design``; the band
    is the pointwise 2.5/97.5 percentile envelope.  Significance uses a
    credible interval per basis coefficient at level ``COHERENCE_ALPHA``,
    Bonferroni-corrected over every covariate coefficient of the fitted
    variant; the curve is flagged significant when any coefficient's
    corrected interval excludes zero.  ``dx`` (km) converts magnitudes to
    periods.
    """
    cols = [
        (i, c)
        for i, c in enumerate(design.columns)
        if c.kind == "covariate" and c.k == k and c.j == j
    ]
    if not cols:
        raise ValueError(f"posterior has no coefficients for pair (k={k}, j={j})")
    if len(cols) != basis.count:
        raise ValueError(
            f"pair (k={k}, j={j}) has {len(cols)} coefficients but basis has {basis.count}"
        )
    n_family = sum(1 for c in design.columns if c.kind == "covariate")
    slopes = posterior.beta_draws()[:, [i for i, _ in cols]]
    slopes = slopes / np.array([design.col_sd[i] for i, _ in cols])
    slopes = slopes[:, np.argsort([c.b for _, c in cols])]

    mags = np.linspace(0.0, MAX_MAGNITUDE, COHERENCE_POINTS + 1)[1:]
    weights = basis.evaluate(mags)  # (COHERENCE_POINTS, B)
    curves = slopes @ weights.T  # (I, COHERENCE_POINTS)
    mean = curves.mean(axis=0)
    lo, hi = np.percentile(curves, [2.5, 97.5], axis=0)

    level = COHERENCE_ALPHA / n_family
    q_lo, q_hi = np.percentile(slopes, [100 * level / 2, 100 * (1 - level / 2)], axis=0)
    coef_significant = (q_lo > 0) | (q_hi < 0)

    periods = np.array([period_of(m, dx) for m in mags])
    return CoherenceCurve(
        k=k,
        j=j,
        magnitudes=mags,
        periods_km=periods,
        mean=mean,
        lo=lo,
        hi=hi,
        significant=bool(coef_significant.any()),
        coef_significant=coef_significant,
    )
