"""Parameter estimation: least squares, per-batch MCMC, consensus combination.

Independent-error variants are fit by ordinary least squares.  Spatial
variants run a partially collapsed Gibbs/Metropolis-Hastings sampler per
3-day batch.  The decay rate, the coregionalization entries and the nugget
variances get Metropolis updates against the likelihood with the residual
field w integrated out (logit scale for the bounded rate, log scale for the
mixing diagonal and the nuggets), and after burn-in also a joint proposal
fitted to the burn-in draws.  The stacked w is then drawn from its exact
conditional, and the regression coefficients and the nuggets get their
conjugate Gibbs updates given w.  Batch subposteriors are merged by
precision-weighted averaging of aligned draws, performed on the transformed
parameter scale.

The hyperparameters theta (the K nugget variances, the lower-triangular
mixing matrix A and the decay rate) have one representation on the
sampler's scale, written and read only by :func:`_pack_hyper` and
:func:`_unpack_hyper`: log nuggets, then A's free entries column-major with
the diagonal logged (index pairs from :func:`_coreg_index`), then the logit
of the rate within its bounds (:func:`_rate_logit`, decoded by
:func:`_rate`).  Posterior draws, the block proposal and the parameter names
all use this codec.

Every sampler owns its generator; a batch seeded identically reproduces its
draws bit for bit, so batches may run in parallel worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, qr
from scipy.linalg.blas import dtrsv

from .lmc import (
    Coregionalization,
    CovarianceNotPDError,
    LmcKernel,
    SpatialDecay,
    StackedLayout,
    chol_pd,
)
from .stations import DesignMatrix, ModelVariant

__all__ = [
    "Priors",
    "McmcConfig",
    "BatchData",
    "BatchPosterior",
    "RankDeficientError",
    "fit_ols",
    "ols_posterior",
    "make_batches",
    "fit_batch_mcmc",
    "consensus_combine",
    "marginal_loglik",
    "draw_nugget2_conditional",
    "derive_rng",
]


class RankDeficientError(ValueError):
    """Design matrix is rank deficient; message names the offending columns."""


class McmcError(RuntimeError):
    """A batch chain failed irrecoverably (covariance factorization)."""


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived deterministically from (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class Priors:
    """Prior hyperparameters of the Bayesian spatial model.

    Regression coefficients get N(0, beta_sd^2); the mixing matrix gets
    N(0, coreg_offdiag_sd^2) off the diagonal and lognormal LN(0,
    coreg_diag_log_sd^2) on it; the nugget variances get inverse-gamma
    (placed on tau^2 so the Gibbs update stays conjugate); the decay rate is
    uniform on ``decay_bounds``, the effective-range window of the domain.
    """

    decay_bounds: tuple
    beta_sd: float = 100.0
    coreg_offdiag_sd: float = 10.0
    coreg_diag_log_sd: float = 10.0
    nugget_shape: float = 2.0
    nugget_scale: float = 0.1

    def __post_init__(self):
        lo, hi = self.decay_bounds
        if not (0 < lo < hi):
            raise ValueError(f"decay bounds must satisfy 0 < lo < hi, got {self.decay_bounds}")
        for name in ("beta_sd", "coreg_offdiag_sd", "coreg_diag_log_sd", "nugget_shape", "nugget_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler length, proposal scales, and testing hooks.

    Defaults trade accuracy for desk-scale runtime.  Step sizes adapt toward
    a 25-45% acceptance rate during burn-in and freeze afterwards;
    ``step_coreg`` is the initial step of the mixing entries and of the log
    nuggets.  With ``adapt`` the second half of burn-in also fits the joint
    proposal of decay, mixing entries and nuggets.  The ``update_*``
    switches hold a block at its initial value, which is how the
    conjugate-oracle tests isolate a single full conditional.
    """

    iterations: int = 5000
    burnin: int = 2000
    thin: int = 3
    step_decay: float = 0.8
    step_coreg: float = 0.3
    adapt: bool = True
    seed: int = 0
    store_w: bool = True
    update_w: bool = True
    update_beta: bool = True
    update_nugget: bool = True
    update_coreg: bool = True
    update_decay: bool = True
    init_nugget2: np.ndarray | None = None

    def __post_init__(self):
        if not self.iterations > self.burnin >= 0:
            raise ValueError("need iterations > burnin >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_draws(self) -> int:
        return (self.iterations - self.burnin + self.thin - 1) // self.thin


@dataclass(frozen=True)
class BatchData:
    """Observations and design rows for one contiguous day window."""

    days: tuple
    y: np.ndarray
    X: np.ndarray
    layout: StackedLayout
    n_pollutants: int
    design: DesignMatrix | None = None

    def __post_init__(self):
        if self.y.shape[0] != self.X.shape[0] or self.y.shape[0] != self.layout.n:
            raise ValueError("y, X and layout must have matching row counts")
        if self.y.shape[0] == 0:
            raise ValueError("batch is empty")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def make_batches(
    design: DesignMatrix, y: np.ndarray, train_days, batch_len: int = 3
) -> list[BatchData]:
    """Cut the training period into non-overlapping ``batch_len``-day windows.

    A final partial window is dropped with a warning; windows without any
    observation are skipped with a warning.
    """
    days = [int(d) for d in train_days]
    n_full = len(days) // batch_len
    if len(days) % batch_len:
        warnings.warn(
            f"dropping final partial batch of {len(days) % batch_len} day(s)",
            stacklevel=2,
        )
    K = design.n_pollutants
    batches = []
    for w in range(n_full):
        window = tuple(days[w * batch_len : (w + 1) * batch_len])
        rows = design.rows_for_days(window)
        if rows.size == 0:
            warnings.warn(f"batch {window} has no observations; skipped", stacklevel=2)
            continue
        batches.append(
            BatchData(
                days=window,
                y=np.asarray(y)[rows],
                X=design.X[rows],
                layout=design.layout(rows),
                n_pollutants=K,
                design=design,
            )
        )
    return batches


# ---------------------------------------------------------------------------
# Ordinary least squares (independent-error variants)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OlsFit:
    coef: np.ndarray
    se: np.ndarray
    residuals: np.ndarray
    sigma2: float
    cov_unit: np.ndarray  # (X'X)^{-1}; coefficient covariance is sigma2 * cov_unit
    df: int


def fit_ols(X: np.ndarray, y: np.ndarray, column_labels=None) -> OlsFit:
    """Least squares with standard errors from sigma^2 (X'X)^{-1}.

    Rank deficiency raises :class:`RankDeficientError` naming the columns
    that QR pivoting puts beyond the numerical rank.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"fewer rows ({n}) than columns ({p})")
    r, piv = qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(r[:p]))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size else 0.0
    rank = int(np.sum(diag > tol))
    if rank < p:
        labels = column_labels or [f"col{i}" for i in range(p)]
        bad = [labels[i] for i in sorted(piv[rank:])]
        raise RankDeficientError(f"design is rank deficient; dependent columns: {bad}")
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    df = n - p
    sigma2 = float(resid @ resid / df) if df > 0 else 0.0
    cov_unit = np.linalg.inv(X.T @ X)
    se = np.sqrt(np.maximum(sigma2 * np.diag(cov_unit), 0.0))
    return OlsFit(coef=coef, se=se, residuals=resid, sigma2=sigma2, cov_unit=cov_unit, df=df)


# ---------------------------------------------------------------------------
# Posterior container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchPosterior:
    """MCMC draws for one batch (or the consensus of several).

    ``draws`` live on the transformed scale: regression coefficients as-is,
    then theta in the layout of :func:`_pack_hyper` (log nugget variances,
    the mixing entries column-major with the diagonal logged, the logit of
    the decay rate within its prior bounds).  Only the draws are stored;
    the accessors below decode them through the same codec, and
    ``sample_cov``, the precision weight of consensus combination, is
    computed from them on request.
    """

    draws: np.ndarray
    param_names: tuple
    transforms: tuple
    n_beta: int
    n_pollutants: int
    days: tuple
    seed: int | None = None
    decay_bounds: tuple | None = None
    acceptance: dict = field(default_factory=dict)
    w_draws: dict | None = None
    w_layout: StackedLayout | None = None

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def has_spatial(self) -> bool:
        return "logit" in self.transforms

    @property
    def sample_cov(self) -> np.ndarray:
        return np.atleast_2d(np.cov(self.draws, rowvar=False))

    def _hyper(self):
        """(nugget2, lower, decay_u) per draw."""
        if not self.has_spatial:
            raise ValueError("posterior has no spatial parameters")
        return _unpack_hyper(self.draws[:, self.n_beta :], self.n_pollutants)

    def beta_draws(self) -> np.ndarray:
        return self.draws[:, : self.n_beta]

    def nugget2_draws(self) -> np.ndarray:
        return np.exp(self.draws[:, self.n_beta : self.n_beta + self.n_pollutants])

    def coreg_draws(self) -> np.ndarray:
        """Mixing matrices per draw, shape (I, K, K)."""
        return self._hyper()[1]

    def decay_draws(self) -> np.ndarray:
        return _rate(self._hyper()[2], self.decay_bounds)

    def natural_draws(self) -> np.ndarray:
        """Draws mapped back to the natural scale, column for column."""
        out = self.draws.copy()
        for i, t in enumerate(self.transforms):
            if t == "log":
                out[:, i] = np.exp(out[:, i])
            elif t == "logit":
                out[:, i] = _rate(out[:, i], self.decay_bounds)
        return out


# ---------------------------------------------------------------------------
# The theta codec
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _coreg_index(K: int) -> tuple:
    """Row and column indices of A's free entries, column-major (shared, read-only)."""
    cols, rows = np.triu_indices(K)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _theta_labels(K: int) -> tuple:
    """Names and transforms of the coordinates of :func:`_pack_hyper`."""
    rows, cols = _coreg_index(K)
    diag = rows == cols
    names = [f"nugget2[{k}].log" for k in range(K)]
    names += [f"coreg[{r},{c}]" + (".log" if d else "") for r, c, d in zip(rows, cols, diag)]
    transforms = ["log"] * K + ["log" if d else "id" for d in diag]
    return names + ["decay.logit"], transforms + ["logit"]


def _pack_hyper(nugget2, lower, decay_u) -> np.ndarray:
    """Log nuggets, mixing entries column-major (diagonal logged), logit decay.

    Takes any leading draw axes: nugget2 (..., K), lower (..., K, K),
    decay_u (...).
    """
    rows, cols = _coreg_index(np.shape(nugget2)[-1])
    vech = lower[..., rows, cols]
    diag = rows == cols
    vech[..., diag] = np.log(vech[..., diag])
    return np.concatenate([np.log(nugget2), vech, np.asarray(decay_u)[..., None]], axis=-1)


def _unpack_hyper(v: np.ndarray, K: int):
    """Inverse of :func:`_pack_hyper`: (nugget2, lower, decay_u)."""
    rows, cols = _coreg_index(K)
    diag = rows == cols
    vech = v[..., K:-1].copy()
    vech[..., diag] = np.exp(vech[..., diag])
    lower = np.zeros(v.shape[:-1] + (K, K))
    lower[..., rows, cols] = vech
    return np.exp(v[..., :K]), lower, v[..., -1]


def _expit(u):
    return 1.0 / (1.0 + np.exp(-u))


def _rate(u, bounds):
    """Decay rate from its logit within ``bounds``."""
    lo, hi = bounds
    return lo + (hi - lo) * _expit(u)


def _rate_logit(rate, bounds):
    """Inverse of :func:`_rate`."""
    lo, hi = bounds
    x = (rate - lo) / (hi - lo)
    return np.log(x) - np.log1p(-x)


def _logit_jacobian(u):
    s = _expit(u)
    return np.log(s) + np.log1p(-s)


# ---------------------------------------------------------------------------
# Full-conditional updates
# ---------------------------------------------------------------------------


def draw_beta_conditional(X, y_minus_w, nugget2_row, beta_sd, rng):
    """One draw of all regression coefficients jointly from their conjugate
    Gaussian full conditional."""
    p = X.shape[1]
    Xw = X / nugget2_row[:, None]
    prec = X.T @ Xw + np.eye(p) / beta_sd**2
    b = Xw.T @ y_minus_w
    L = np.linalg.cholesky(prec)
    mean = _tri_solve(L, _tri_solve(L, b), transpose=True)
    z = rng.standard_normal(p)
    return mean + _tri_solve(L, z, transpose=True)


def draw_nugget2_conditional(ssq, count, priors: Priors, rng, size=None):
    """Conjugate inverse-gamma update of one pollutant's nugget variance."""
    shape = priors.nugget_shape + 0.5 * count
    scale = priors.nugget_scale + 0.5 * ssq
    return scale / rng.gamma(shape, 1.0, size=size)


# ---------------------------------------------------------------------------
# The batch sampler
# ---------------------------------------------------------------------------


class _BlockGroup:
    """Day blocks of one common size, stacked for batched linear algebra."""

    def __init__(self, rows: np.ndarray, layout: StackedLayout, n_pollutants: int):
        self.rows = rows  # (G, n) stacked-vector indices per day
        self.kernel = LmcKernel(layout.coords[rows], layout.pollutant[rows], n_pollutants)
        G, n = rows.shape
        self.diag = (np.arange(G)[:, None] * n * n + np.arange(n) * (n + 1)).ravel()

    def add_diag(self, stack: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Copy of ``stack`` with ``values`` (stacked-vector order) added on each diagonal."""
        out = stack.copy()
        out.reshape(-1)[self.diag] += values[self.rows.ravel()]
        return out

    def gather(self, stacked: np.ndarray) -> np.ndarray:
        return stacked[self.rows]

    def scatter(self, out: np.ndarray, values: np.ndarray) -> None:
        out[self.rows.ravel()] = values.ravel()


class _DayBlocks:
    """All day blocks of one batch, grouped by size."""

    def __init__(self, layout: StackedLayout, n_pollutants: int):
        day_groups = sorted(layout.day_groups().items())
        self.days = [d for d, _ in day_groups]
        self.idx = [idx for _, idx in day_groups]
        by_size: dict = {}
        for pos, idx in enumerate(self.idx):
            by_size.setdefault(idx.size, []).append(pos)
        self.groups = []
        self.group_days = []
        for size in sorted(by_size):
            positions = by_size[size]
            rows = np.array([self.idx[p] for p in positions])
            self.groups.append(_BlockGroup(rows, layout, n_pollutants))
            self.group_days.append([self.days[p] for p in positions])

    def corr(self, rate: float):
        return [g.kernel.corr(rate) for g in self.groups]

    def cov(self, cross: np.ndarray, corr_stacks):
        return [g.kernel.cov(cross, R) for g, R in zip(self.groups, corr_stacks)]


def _tri_solve(L: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """L^{-1} b, or L^{-T} b with ``transpose``, for a lower factor L."""
    # L.T is L^T in Fortran order: trans=1 solves with L, trans=0 with L^T
    return dtrsv(L.T, b, lower=0, trans=0 if transpose else 1)


def _solve_lower(chols: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """:func:`_tri_solve` per stacked factor: shapes (G, n, n) and (G, n)."""
    out = np.empty_like(b)
    for g, L in enumerate(chols):
        out[g] = _tri_solve(L, b[g], transpose)
    return out


def _factor_marginal(blocks: _DayBlocks, covs, nugget_row):
    """Lower factors of C + D per size group, or None if one is not PD."""
    try:
        return [chol_pd(group.add_diag(C, nugget_row))[0] for group, C in zip(blocks.groups, covs)]
    except CovarianceNotPDError:
        return None


def _marginal_loglik(blocks: _DayBlocks, chols, resid: np.ndarray) -> float:
    """log N(resid; 0, C + D) without the 2 pi term, from the factors of C + D."""
    total = 0.0
    for group, L in zip(blocks.groups, chols):
        z = _solve_lower(L, group.gather(resid))
        total += -0.5 * float(np.einsum("gn,gn->", z, z)) - float(
            np.log(np.diagonal(L, axis1=1, axis2=2)).sum()
        )
    return total


def _draw_w_grouped(blocks: _DayBlocks, covs, prior_chols, chols, resid, nugget_row, rng):
    """Exact draw of w given resid = y - X beta, by conditioning a prior draw.

    Per day, w0 ~ N(0, C) and e0 ~ N(0, D) give
    w = w0 + C (C + D)^{-1} (resid - w0 - e0) ~ N(C (C + D)^{-1} resid,
    C - C (C + D)^{-1} C), the exact conditional.  ``chols`` are the factors
    of C + D that the marginal updates accepted; ``prior_chols`` factor C.
    """
    out = np.empty(resid.shape[0])
    for group, C, L_prior, L in zip(blocks.groups, covs, prior_chols, chols):
        z = rng.standard_normal(group.rows.shape)
        w0 = np.matmul(L_prior, z[..., None])[..., 0]
        e0 = np.sqrt(nugget_row[group.rows]) * rng.standard_normal(group.rows.shape)
        u = _solve_lower(L, group.gather(resid) - w0 - e0)
        v = _solve_lower(L, u, transpose=True)
        group.scatter(out, w0 + np.matmul(C, v[..., None])[..., 0])
    return out


class _StepAdapter:
    """Scale a random-walk step toward 25-45% acceptance during burn-in."""

    def __init__(self, step, enabled, window=50):
        self.step = step
        self.enabled = enabled
        self.window = window
        self.proposed = 0
        self.accepted = 0
        self.total_proposed = 0
        self.total_accepted = 0

    def record(self, accepted, adapting):
        self.proposed += 1
        self.total_proposed += 1
        if accepted:
            self.accepted += 1
            self.total_accepted += 1
        if self.enabled and adapting and self.proposed >= self.window:
            rate = self.accepted / self.proposed
            if rate > 0.45:
                self.step *= 1.2
            elif rate < 0.25:
                self.step /= 1.2
            self.proposed = 0
            self.accepted = 0

    @property
    def rate(self):
        return self.total_accepted / self.total_proposed if self.total_proposed else float("nan")


class _IndependenceProposal:
    """Multivariate t proposal for the whole hyperparameter block.

    Fitted to draws from the second half of burn-in on the sampler's
    coordinates (log nuggets, mixing entries with the diagonal logged, logit
    decay): location their mean, scale their covariance inflated by
    ``inflate``.  Its tails are heavier than a Gaussian's, so the tails
    that decide interval ends are proposed often enough.
    """

    df = 5.0
    inflate = 1.5

    def __init__(self, mean: np.ndarray, chol: np.ndarray):
        self.mean = mean
        self.chol = chol

    @classmethod
    def fit(cls, draws):
        """Proposal fitted to ``draws`` (n, d); None if fewer than 10 d or degenerate."""
        draws = np.asarray(draws)
        n, d = draws.shape
        if n < 10 * d:
            return None
        try:
            chol = np.linalg.cholesky(cls.inflate * np.cov(draws, rowvar=False))
        except np.linalg.LinAlgError:
            return None
        return cls(draws.mean(axis=0), chol)

    def draw(self, rng) -> np.ndarray:
        z = rng.standard_normal(self.mean.size)
        return self.mean + (self.chol @ z) * np.sqrt(self.df / rng.chisquare(self.df))

    def logpdf(self, v: np.ndarray) -> float:
        """Log density up to an additive constant."""
        z = _tri_solve(self.chol, v - self.mean)
        return -0.5 * (self.df + v.size) * float(np.log1p(z @ z / self.df))


def fit_batch_mcmc(
    batch: BatchData,
    variant: ModelVariant,
    priors: Priors,
    cfg: McmcConfig,
) -> BatchPosterior:
    """Partially collapsed Gibbs/Metropolis sampler for one batch of a spatial variant.

    Update cycle per iteration:

    1. Metropolis steps against p(y | beta, tau^2, decay, A), the likelihood
       with w integrated out, which costs one Cholesky factor of C + D per
       day block and proposal (C the LMC block, D the nugget diagonal):
       a random walk on the logit of the decay rate; one on each free mixing
       entry (log scale on the diagonal); one on each log nugget variance;
       after burn-in, a proposal of the whole block (decay, mixing, nuggets)
       from a multivariate t fitted to the second half of burn-in.
    2. Exact Gaussian draw of the stacked w given y - X beta, reusing the
       accepted factor of C + D; C itself is factored once per change of
       decay or mixing matrix, through the jitter rule.
    3. Conjugate Gaussian draw of all coefficients given y - w.
    4. Conjugate inverse-gamma draw of each nugget variance from its
       pollutant's residuals y - X beta - w.

    Steps 1-2 form one valid block: the Metropolis steps leave w out of the
    target and w is drawn afresh afterwards (van Dyk & Park 2008).  A
    switched-off ``update_*`` block holds its initial value; with w held,
    steps 3-4 condition on the held field, and the block proposal runs only
    when decay, mixing and nuggets all update.  Every Metropolis step goes
    through one accept/reject path that rebuilds only what its proposal
    changed.  Draws kept after burn-in and thinning are returned.
    """
    if not variant.spatial:
        raise ValueError("fit_batch_mcmc requires a spatial variant")
    rng = np.random.default_rng(cfg.seed)
    K = batch.n_pollutants
    n, p = batch.n, batch.p
    X, y = batch.X, batch.y
    pol_row = batch.layout.pollutant
    blocks = _DayBlocks(batch.layout, K)
    lo, hi = bounds = tuple(priors.decay_bounds)

    # deterministic initial state
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid0 = y - X @ beta
    if cfg.init_nugget2 is not None:
        nugget2 = np.asarray(cfg.init_nugget2, dtype=float).copy()
    else:
        nugget2 = np.empty(K)
        for k in range(K):
            rk = resid0[pol_row == k]
            nugget2[k] = max(0.5 * rk.var(), 1e-4) if rk.size > 1 else 0.1
    lower = np.zeros((K, K))
    for k in range(K):
        rk = resid0[pol_row == k]
        lower[k, k] = max(np.sqrt(0.5) * rk.std(), 1e-2) if rk.size > 1 else 0.3
    rate = 0.5 * (lo + hi)

    cross = lower @ lower.T
    corr = blocks.corr(rate)
    covs = blocks.cov(cross, corr)
    chols = _factor_marginal(blocks, covs, nugget2[pol_row])
    if chols is None:
        raise McmcError("marginal covariance not positive definite even after jitter")
    prior_chols = None  # factors of the C blocks, made when w is next drawn
    w = np.zeros(n)

    def move(nugget_p, lower_p, rate_p, log_ratio) -> bool:
        """Metropolis test of theta' against the marginal; moves the state if accepted.

        The correlation is rebuilt only when the rate changes, the cross
        block only when the mixing matrix does, and the covariances only
        when either does.
        """
        nonlocal rate, corr, lower, cross, covs, nugget2, chols, ll, prior_chols
        corr_p = corr if rate_p == rate else blocks.corr(rate_p)
        cross_p = cross if lower_p is lower else lower_p @ lower_p.T
        covs_p = covs if corr_p is corr and cross_p is cross else blocks.cov(cross_p, corr_p)
        chols_p = _factor_marginal(blocks, covs_p, nugget_p[pol_row])
        logu = np.log(rng.uniform())
        if chols_p is None:
            return False
        ll_p = _marginal_loglik(blocks, chols_p, resid)
        if not logu < ll_p - ll + log_ratio:
            return False
        if covs_p is not covs:
            prior_chols = None
        rate, corr, lower, cross, covs = rate_p, corr_p, lower_p, cross_p, covs_p
        nugget2, chols, ll = nugget_p, chols_p, ll_p
        return True

    def coreg_logprior(mat):
        total = 0.0
        for r, c in entries:
            v = mat[r, c]
            if r == c:
                total += -0.5 * (np.log(v) / priors.coreg_diag_log_sd) ** 2
            else:
                total += -0.5 * (v / priors.coreg_offdiag_sd) ** 2
        return total

    def nugget_logprior(log_tau2):
        # inverse-gamma density of tau^2 on the log scale
        return -priors.nugget_shape * log_tau2 - priors.nugget_scale * np.exp(-log_tau2)

    def block_logprior(nug, mat, decay_u):
        """Log prior of nuggets, mixing matrix and logit decay on the sampler's coordinates."""
        nugget_part = float(nugget_logprior(np.log(nug)).sum())
        return nugget_part + coreg_logprior(mat) + _logit_jacobian(decay_u)

    entries = [(int(r), int(c)) for r, c in zip(*_coreg_index(K))]
    adapt_decay = _StepAdapter(cfg.step_decay, cfg.adapt)
    adapt_coreg = [_StepAdapter(cfg.step_coreg, cfg.adapt) for _ in entries]
    adapt_nugget = [_StepAdapter(cfg.step_coreg, cfg.adapt) for _ in range(K)]
    block_moves = cfg.adapt and cfg.update_decay and cfg.update_coreg and cfg.update_nugget
    block_history = []
    block_proposal = None
    block_tried = block_taken = 0

    names, transforms = _theta_labels(K)
    kept = np.empty((cfg.n_draws, p + len(names)))
    w_store = (
        {d: np.empty((cfg.n_draws, idx.size)) for d, idx in zip(blocks.days, blocks.idx)}
        if cfg.store_w
        else None
    )
    keep_i = 0

    for it in range(cfg.iterations):
        adapting = it < cfg.burnin
        resid = y - X @ beta
        if cfg.update_decay or cfg.update_coreg or cfg.update_nugget:
            ll = _marginal_loglik(blocks, chols, resid)

        # (1a) decay rate, random walk on the logit scale; the rate's
        # uniform prior puts the logit transform's Jacobian into the ratio
        if cfg.update_decay:
            u = _rate_logit(rate, bounds)
            u_prop = u + adapt_decay.step * rng.standard_normal()
            log_ratio = _logit_jacobian(u_prop) - _logit_jacobian(u)
            adapt_decay.record(move(nugget2, lower, _rate(u_prop, bounds), log_ratio), adapting)

        # (1b) mixing-matrix entries
        if cfg.update_coreg:
            for (r_i, c_i), adapter in zip(entries, adapt_coreg):
                prop = lower.copy()
                if r_i == c_i:
                    prop[r_i, c_i] = lower[r_i, c_i] * np.exp(adapter.step * rng.standard_normal())
                else:
                    prop[r_i, c_i] = lower[r_i, c_i] + adapter.step * rng.standard_normal()
                log_ratio = coreg_logprior(prop) - coreg_logprior(lower)
                adapter.record(move(nugget2, prop, rate, log_ratio), adapting)

        # (1c) nugget variances, random walk on the log scale
        if cfg.update_nugget:
            for k, adapter in enumerate(adapt_nugget):
                log_t = np.log(nugget2[k])
                log_t_prop = log_t + adapter.step * rng.standard_normal()
                prop = nugget2.copy()
                prop[k] = np.exp(log_t_prop)
                log_ratio = nugget_logprior(log_t_prop) - nugget_logprior(log_t)
                adapter.record(move(prop, lower, rate, log_ratio), adapting)

        # (1d) the whole block from the proposal fitted during burn-in
        if block_proposal is not None:
            u = _rate_logit(rate, bounds)
            v = _pack_hyper(nugget2, lower, u)
            v_prop = block_proposal.draw(rng)
            nugget_prop, prop, u_prop = _unpack_hyper(v_prop, K)
            log_ratio = (
                block_logprior(nugget_prop, prop, u_prop)
                - block_logprior(nugget2, lower, u)
                + block_proposal.logpdf(v)
                - block_proposal.logpdf(v_prop)
            )
            block_tried += 1
            block_taken += move(nugget_prop, prop, _rate(u_prop, bounds), log_ratio)
        elif block_moves and adapting and it >= cfg.burnin // 2:
            block_history.append(_pack_hyper(nugget2, lower, _rate_logit(rate, bounds)))
            if it == cfg.burnin - 1:
                block_proposal = _IndependenceProposal.fit(block_history)

        # (2) stacked residual field
        if cfg.update_w:
            if prior_chols is None:
                try:
                    prior_chols = [chol_pd(C)[0] for C in covs]
                except CovarianceNotPDError:
                    raise McmcError("day covariance not positive definite even after jitter")
            w = _draw_w_grouped(blocks, covs, prior_chols, chols, resid, nugget2[pol_row], rng)

        # (3) coefficients
        if cfg.update_beta:
            beta = draw_beta_conditional(X, y - w, nugget2[pol_row], priors.beta_sd, rng)

        # (4) nuggets
        if cfg.update_nugget:
            err = y - X @ beta - w
            for k in range(K):
                ek = err[pol_row == k]
                nugget2[k] = draw_nugget2_conditional(ek @ ek, ek.size, priors, rng)
            chols = _factor_marginal(blocks, covs, nugget2[pol_row])
            if chols is None:
                raise McmcError("marginal covariance not positive definite even after jitter")

        if it >= cfg.burnin and (it - cfg.burnin) % cfg.thin == 0:
            kept[keep_i, :p] = beta
            kept[keep_i, p:] = _pack_hyper(nugget2, lower, _rate_logit(rate, bounds))
            if w_store is not None:
                for d, idx in zip(blocks.days, blocks.idx):
                    w_store[d][keep_i] = w[idx]
            keep_i += 1

    labels = (
        list(batch.design.column_labels())
        if batch.design is not None
        else [f"beta[{i}]" for i in range(p)]
    )
    acceptance = {"decay": adapt_decay.rate}
    for (r, c), adapter in zip(entries, adapt_coreg):
        acceptance[f"coreg[{r},{c}]"] = adapter.rate
    for k, adapter in enumerate(adapt_nugget):
        acceptance[f"nugget2[{k}]"] = adapter.rate
    acceptance["block"] = block_taken / block_tried if block_tried else float("nan")

    return BatchPosterior(
        draws=kept,
        param_names=tuple(labels + names),
        transforms=tuple(["id"] * p + transforms),
        n_beta=p,
        n_pollutants=K,
        days=batch.days,
        seed=cfg.seed,
        decay_bounds=bounds,
        acceptance=acceptance,
        w_draws=w_store,
        w_layout=batch.layout if cfg.store_w else None,
    )


def ols_posterior(
    batch: BatchData, n_draws: int = 1000, seed: int = 0
) -> BatchPosterior:
    """Normal-theory pseudo-posterior for the independent-error variants.

    Per pollutant block: sigma^2 drawn from its scaled inverse chi-square,
    coefficients from N(coef_hat, sigma^2 (X'X)^{-1}).  Gives the
    independent models predictive draws on the same footing as the MCMC
    posteriors (no spatial parameters, so interpolation adds no residual
    field).
    """
    rng = np.random.default_rng(seed)
    design = batch.design
    labels = (
        list(design.column_labels())
        if design is not None
        else [f"beta[{i}]" for i in range(batch.p)]
    )
    K = batch.n_pollutants
    pol_row = batch.layout.pollutant
    beta_draws = np.zeros((n_draws, batch.p))
    log_nugget2 = np.zeros((n_draws, K))
    for k in range(K):
        rows = np.flatnonzero(pol_row == k)
        if design is not None:
            cols = np.array([i for i, c in enumerate(design.columns) if c.k == k])
        else:
            cols = np.arange(batch.p)
        Xk = batch.X[np.ix_(rows, cols)]
        fit = fit_ols(Xk, batch.y[rows], [labels[i] for i in cols])
        if fit.df > 0 and fit.sigma2 > 0:
            sigma2 = fit.sigma2 * fit.df / rng.chisquare(fit.df, size=n_draws)
        else:
            sigma2 = np.full(n_draws, max(fit.sigma2, 1e-12))
        cf = np.linalg.cholesky(fit.cov_unit)
        z = rng.standard_normal((n_draws, cols.size))
        beta_draws[:, cols] = fit.coef + np.sqrt(sigma2)[:, None] * (z @ cf.T)
        log_nugget2[:, k] = np.log(np.maximum(sigma2, 1e-300))
    names, transforms = _theta_labels(K)
    return BatchPosterior(
        draws=np.hstack([beta_draws, log_nugget2]),
        param_names=tuple(labels + names[:K]),
        transforms=tuple(["id"] * batch.p + transforms[:K]),
        n_beta=batch.p,
        n_pollutants=K,
        days=batch.days,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Consensus combination
# ---------------------------------------------------------------------------


def _draws_key(post: BatchPosterior):
    return (post.days, hashlib.sha256(np.ascontiguousarray(post.draws).tobytes()).hexdigest())


def consensus_combine(posteriors) -> BatchPosterior:
    """Precision-weighted average of aligned batch draws.

    Draw i of the output is (sum_m W_m)^{-1} sum_m W_m theta_m^(i) with
    W_m the inverse sample covariance of batch m, computed on the
    transformed scale.  Batches are processed in a canonical order so the
    result is invariant to input permutation; a single batch is returned
    unchanged.  Draw counts are truncated to the shortest batch; a singular
    batch covariance is factored under the jitter rule of
    :func:`~specdown.lmc.chol_pd`, with a warning.
    """
    posteriors = list(posteriors)
    if not posteriors:
        raise ValueError("no batch posteriors to combine")
    first = posteriors[0]
    for post in posteriors[1:]:
        if post.param_names != first.param_names:
            raise ValueError("batch posteriors have mismatched parameters")
    if len(posteriors) == 1:
        return first

    posteriors = sorted(posteriors, key=_draws_key)
    n_draws = min(post.n_draws for post in posteriors)
    if any(post.n_draws != n_draws for post in posteriors):
        warnings.warn(f"truncating batches to the shortest draw count {n_draws}", stacklevel=2)
    P = first.draws.shape[1]

    weights = []
    for post in posteriors:
        L, jittered = chol_pd(post.sample_cov)
        if jittered:
            warnings.warn("singular batch covariance; ridge-regularizing", stacklevel=2)
        weights.append(cho_solve((L, True), np.eye(P)))

    total = np.zeros((P, P))
    weighted = np.zeros((P, n_draws))
    for post, wgt in zip(posteriors, weights):
        total += wgt
        weighted += wgt @ post.draws[:n_draws].T
    combined = cho_solve((np.linalg.cholesky(total), True), weighted).T

    return BatchPosterior(
        draws=combined,
        param_names=first.param_names,
        transforms=first.transforms,
        n_beta=first.n_beta,
        n_pollutants=first.n_pollutants,
        days=tuple(sorted({d for post in posteriors for d in post.days})),
        seed=None,
        decay_bounds=first.decay_bounds,
    )


# ---------------------------------------------------------------------------
# Marginal likelihood (w integrated out), used by the batching contract test
# ---------------------------------------------------------------------------


def marginal_loglik(
    batch: BatchData,
    beta: np.ndarray,
    coreg: Coregionalization,
    decay: SpatialDecay,
    nugget2: np.ndarray,
) -> float:
    """log p(y | theta) with the residual field integrated out.

    Days are independent, so the total is a sum of per-day Gaussian
    log-densities with covariance C_d + diag(nugget).
    """
    blocks = _DayBlocks(batch.layout, batch.n_pollutants)
    corr = blocks.corr(decay.rate)
    chols = _factor_marginal(
        blocks, blocks.cov(coreg.cross_cov(), corr), np.asarray(nugget2)[batch.layout.pollutant]
    )
    if chols is None:
        raise CovarianceNotPDError("marginal covariance not positive definite")
    loglik = _marginal_loglik(blocks, chols, batch.y - batch.X @ beta)
    return float(loglik - 0.5 * batch.n * np.log(2.0 * np.pi))
