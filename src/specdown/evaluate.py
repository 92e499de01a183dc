"""Posterior prediction, cross-validation splits, scoring, coherence curves.

Interpolation predicts at unmonitored locations inside the training period:
the regression mean plus a conditional (kriging) draw of the residual field
given that day's sampled field at the observed sites.  Forecasting predicts
future days, where the residual field is unconditioned: its mean is zero and
only its variance enters the predictive draws.  Point predictions are
reported on the original concentration scale as exp of the posterior median
of the log-scale draws.

Prediction is vectorised over targets.  Design rows are gathered from the
field or covariate grids by each target's cell with
:func:`~specdown.stations.design_rows`, which also makes the training
design, and standardized as the training design was.  Per interpolation day, the
LMC covariances of the observed sites, one (n, n) matrix per posterior draw,
are built by :class:`~specdown.lmc.LmcKernel` and factored once as
C = L L^T by :func:`~specdown.lmc.chol_pd` (its jitter rule when plain
Cholesky fails; :class:`~specdown.lmc.CovarianceNotPDError` when that fails
too).  With c0
the cross-covariances between a target and the sites, the conditional mean
is (L^{-1} c0) . (L^{-1} w) = c0 . C^{-1} w and the variance is
sigma_kk^2 - ||L^{-1} c0||^2, both by batched matrix products over draws and
targets.  Targets go through in chunks of consecutive targets, sized so that
no temporary holds more than ``PREDICT_CHUNK_VALUES`` floats; noise is drawn
chunk by chunk in target order, so the chunk size does not change results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filters import MAX_MAGNITUDE, SpectralBasis, period_of
from .grid import GridSpec
from .inference import BatchPosterior
from .lmc import LmcKernel, chol_pd
from .stations import DesignMatrix, ModelVariant, Station, cell_indices, design_rows

__all__ = [
    "PredictionTarget",
    "PredictionResult",
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

#: Largest number of float64 values in one prediction temporary.  Targets
#: are processed in chunks sized so that the (I, T, n) cross-covariances of
#: I draws, T targets and n sites of a day stay under it, which bounds the
#: memory a prediction call adds beyond its per-day factors.
PREDICT_CHUNK_VALUES = 2**16

#: Magnitudes per coherence curve, evenly spaced over (0, MAX_MAGNITUDE].
COHERENCE_POINTS = 100

#: Family-wise level of the Bonferroni-corrected coefficient intervals.
COHERENCE_ALPHA = 0.05


@dataclass(frozen=True)
class PredictionTarget:
    x: float
    y: float
    pollutant_id: int
    day: int
    mode: str
    site_id: str = ""

    def __post_init__(self):
        if self.mode not in ("interpolation", "forecast"):
            raise ValueError(f"mode must be interpolation or forecast, got {self.mode!r}")


@dataclass(frozen=True)
class PredictionResult:
    target: PredictionTarget
    mean_log: float
    lo_log: float
    hi_log: float
    point: float


@dataclass(frozen=True)
class PredictionContext:
    """Inputs needed to rebuild design rows at arbitrary locations:
    ``fields`` maps (j, day) to a GridField, ``covs`` (j, day) to the
    field's (B, ncells) spectral covariate array."""

    variant: ModelVariant
    design: DesignMatrix
    spec: GridSpec
    train_days: tuple
    fields: dict | None = None
    covs: dict | None = None


# ---------------------------------------------------------------------------
# Cross-validation plumbing
# ---------------------------------------------------------------------------


def _stratum(station: Station) -> str:
    """Stratum by what a station measures; pollutant 0 is the total."""
    has_total = 0 in station.measures
    has_species = any(m != 0 for m in station.measures)
    if has_total and has_species:
        return "both"
    if has_total:
        return "total-only"
    return "species-only"


def cv_split(stations, folds: int = 5, seed: int = 0) -> dict:
    """Stratified random fold assignment, one fold id per site.

    Stations are stratified by what they measure (total only, species only,
    both); each stratum is shuffled and dealt round-robin so per-stratum fold
    sizes differ by at most one.  A stratum smaller than the fold count is
    assigned round-robin with a warning.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    stations = list(stations)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    assignment = {}
    for stratum in ("total-only", "species-only", "both"):
        members = sorted(s.site_id for s in stations if _stratum(s) == stratum)
        if not members:
            warnings.warn(f"stratum {stratum!r} is empty", stacklevel=2)
            continue
        if len(members) < folds:
            warnings.warn(
                f"stratum {stratum!r} has {len(members)} station(s), fewer than "
                f"{folds} folds; assigning round-robin",
                stacklevel=2,
            )
        order = rng.permutation(len(members))
        for pos, idx in enumerate(order):
            assignment[members[idx]] = pos % folds
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
    rows = design_rows(
        design.columns, ctx.variant.mean_kind, ctx.fields, ctx.covs, cells, pollutant, day
    )
    design.scale_rows(rows, pollutant)
    return rows


def _invert_lower(L: np.ndarray) -> None:
    """Invert each lower-triangular factor of an (I, n, n) stack in place.

    Blockwise, [[A, 0], [B, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]]:
    batched matrix products with about a quarter of the flops of a general
    inverse, and no temporary larger than a quarter of the stack.
    """
    n = L.shape[-1]
    if n <= 16:
        L[...] = np.linalg.inv(L)
        return
    h = n // 2
    _invert_lower(L[:, :h, :h])
    _invert_lower(L[:, h:, h:])
    L[:, h:, :h] = np.matmul(L[:, h:, h:], np.matmul(L[:, h:, :h], L[:, :h, :h]))
    L[:, h:, :h] *= -1.0


class _DayFactor:
    """One interpolation day's sampled field, conditioned per draw.

    The (I, n, n) LMC covariance stack of the day's observed sites is
    factored once, C = L L^T, with the jitter rule; the inverse factor then
    turns kriging a chunk of targets into batched matrix products.
    """

    def __init__(self, posterior: BatchPosterior, day: int, draw_idx, cross, rate):
        layout = posterior.w_layout
        pos = np.flatnonzero(layout.day == day)
        self.coords = layout.coords[pos]
        self.pol = layout.pollutant[pos]
        self.cross = cross  # (I, K, K)
        self.rate = rate  # (I,)
        # (I, n, n) stacks are the largest arrays here: build them in place
        kernel = LmcKernel(self.coords, self.pol, cross.shape[-1])
        cov = kernel.corr(rate)
        kernel.cov(cross, cov, out=cov)
        chol, _ = chol_pd(cov)
        del cov
        _invert_lower(chol)
        self.chol_inv = chol  # (I, n, n)
        w = posterior.w_draws[day][draw_idx]  # (I, n)
        self.z = np.matmul(self.chol_inv, w[..., None])  # L^{-1} w, (I, n, 1)

    def conditional(self, x, y, k):
        """Conditional mean and variance of the field at points (x, y) of
        pollutants k, per draw; each of shape (I, T)."""
        kernel = LmcKernel(np.column_stack([x, y]), k, self.cross.shape[-1], self.coords, self.pol)
        c0 = kernel.cov(self.cross, kernel.corr(self.rate))  # (I, T, n)
        v = np.matmul(c0, np.swapaxes(self.chol_inv, 1, 2))  # rows (L^{-1} c0)^T
        mean = np.matmul(v, self.z)[..., 0]
        var = self.cross[:, k, k] - np.einsum("itn,itn->it", v, v)
        return mean, var


def predict(
    posterior: BatchPosterior,
    targets,
    ctx: PredictionContext,
    rng: np.random.Generator | None = None,
    max_kriging_draws: int | None = None,
) -> list:
    """Predictive draws per target; returns results aligned with ``targets``.

    The regression mean uses the posterior coefficient draws against the
    target's standardized design row.  Interpolation targets add the kriging
    conditional draw of the residual field given that day's sampled values;
    forecast targets add an unconditional residual draw (zero mean, same-site
    variance) when the model is spatial.  All draws include nugget noise, so
    intervals are predictive for a new observation.

    Noise is drawn target by target in ``targets`` order: for a spatial
    posterior a residual block of one normal per draw, then a nugget block;
    otherwise the nugget block only.  Targets are processed in chunks of
    consecutive targets, so the chunk size does not change the stream.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    targets = list(targets)
    if not targets:
        return []
    x = np.array([t.x for t in targets], dtype=float)
    y = np.array([t.y for t in targets], dtype=float)
    k = np.array([t.pollutant_id for t in targets], dtype=int)
    day = np.array([int(t.day) for t in targets], dtype=int)
    interp = np.array([t.mode == "interpolation" for t in targets])
    in_train = np.isin(day, np.array([int(d) for d in ctx.train_days], dtype=int))
    bad = np.flatnonzero(interp != in_train)
    if bad.size:
        t = targets[bad[0]]
        where = "outside" if interp[bad[0]] else "inside"
        raise ValueError(f"{t.mode} target day {t.day} {where} the training period")
    cells = cell_indices(x, y, ctx.spec, [t.site_id or "target" for t in targets])

    beta = posterior.beta_draws()
    n_draws = beta.shape[0]
    if max_kriging_draws is not None and max_kriging_draws < n_draws:
        draw_idx = np.unique(np.linspace(0, n_draws - 1, max_kriging_draws).astype(int))
    else:
        draw_idx = np.arange(n_draws)
    beta = beta[draw_idx]
    nugget_sd = np.sqrt(posterior.nugget2_draws()[draw_idx])  # (I, K)
    n_blocks = 1
    factors = {}
    if posterior.has_spatial:
        n_blocks = 2
        lower = posterior.coreg_draws()[draw_idx]
        cross = lower @ np.swapaxes(lower, 1, 2)
        rate = posterior.decay_draws()[draw_idx]
        marginal_sd = np.sqrt(np.einsum("ikm,ikm->ik", lower, lower))  # (I, K)
        interp_days = np.unique(day[interp]).tolist()
        if interp_days and posterior.w_draws is None:
            raise ValueError("posterior was fit without stored residual draws")
        for d in interp_days:
            if d not in posterior.w_draws:
                raise ValueError(f"posterior holds no residual draws for day {d}")
            factors[d] = _DayFactor(posterior, d, draw_idx, cross, rate)

    I = draw_idx.size
    widest = max([f.pol.size for f in factors.values()] + [n_blocks])
    step = max(1, PREDICT_CHUNK_VALUES // max(I * widest, beta.shape[1]))
    results = []
    for start in range(0, len(targets), step):
        chunk = slice(start, start + step)
        kc, dc = k[chunk], day[chunk]
        noise = rng.standard_normal((kc.size, n_blocks, I))
        draws = _design_rows(ctx, cells[chunk], kc, dc) @ beta.T  # (T, I)
        if posterior.has_spatial:
            resid_mean = np.zeros_like(draws)
            resid_sd = marginal_sd[:, kc].T
            for d, factor in factors.items():
                sel = np.flatnonzero(interp[chunk] & (dc == d))
                if sel.size:
                    mean, var = factor.conditional(x[chunk][sel], y[chunk][sel], kc[sel])
                    resid_mean[sel] = mean.T
                    resid_sd[sel] = np.sqrt(np.maximum(var, 0.0)).T
            draws = draws + (resid_mean + resid_sd * noise[:, 0])
        draws = draws + nugget_sd[:, kc].T * noise[:, -1]
        lo, med, hi = np.percentile(draws, [2.5, 50.0, 97.5], axis=1)
        mean_log = draws.mean(axis=1)
        for i, t in enumerate(targets[chunk]):
            results.append(
                PredictionResult(
                    target=t,
                    mean_log=float(mean_log[i]),
                    lo_log=float(lo[i]),
                    hi_log=float(hi[i]),
                    point=float(np.exp(med[i])),
                )
            )
    return results


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


def score(predictions, observed_raw, variant: str = "", fold: int = -1) -> Scorecard:
    """Score aligned predictions against held-out raw-scale observations.

    ``observed_raw`` maps (site_id, day, pollutant_id) to the observed value
    in original units.  RMSE is computed on the original scale; pollutants
    with fewer than 2 pairs get a missing correlation.
    """
    by_pollutant = {}
    for res in predictions:
        t = res.target
        key = (t.site_id, int(t.day), t.pollutant_id)
        if key not in observed_raw:
            continue
        by_pollutant.setdefault(t.pollutant_id, []).append((res.point, observed_raw[key]))
    rmse, corr = {}, {}
    for k, pairs in sorted(by_pollutant.items()):
        pred = np.array([p for p, _ in pairs])
        obs = np.array([o for _, o in pairs])
        rmse[k] = float(np.sqrt(np.mean((pred - obs) ** 2)))
        if pred.size >= 2 and pred.std() > 0 and obs.std() > 0:
            corr[k] = float(np.corrcoef(pred, obs)[0, 1])
        else:
            corr[k] = None
    return Scorecard(variant=variant, fold=fold, rmse=rmse, corr=corr)


def aggregate_means(predictions, spec: GridSpec) -> list:
    """Group-by-mean export rows: quadrant region x pollutant means.

    Returns rows (region, pollutant_id, n, mean_predicted, mean_observed);
    predictions carry no observations, so mean_observed is None.
    """
    half_x, half_y = spec.extent_km[0] / 2.0, spec.extent_km[1] / 2.0
    groups = {}
    for res in predictions:
        t = res.target
        region = ("E" if t.x >= half_x else "W") + ("N" if t.y >= half_y else "S")
        groups.setdefault((region, t.pollutant_id), []).append(res.point)
    return [
        (region, k, len(preds), float(np.mean(preds)), None)
        for (region, k), preds in sorted(groups.items())
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
