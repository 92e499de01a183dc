"""Parameter estimation: least squares, per-batch MCMC, consensus combination.

Independent-error variants are fit by ordinary least squares.  Spatial
variants run a two-block Gibbs/Metropolis-Hastings sampler per 3-day batch
on the marginal model, with the residual field w integrated out of every
step.  The decay rate, the coregionalization entries and the nugget
variances get Metropolis updates against p(y | beta, theta) (logit scale for
the bounded rate, log scale for the mixing diagonal and the nuggets), and
after burn-in also a joint proposal fitted to the burn-in draws.  The
regression coefficients are then drawn exactly from their generalized least
squares conditional p(beta | theta, y).  Each step needs the Cholesky factor
of the marginal covariance C + D of every day block, which
:class:`~specdown.lmc.DayBlocks` builds and factors once per distinct day
layout, the same sites in the same row order; each day is then solved
against its layout's factor.  Batch subposteriors
are merged by precision-weighted averaging of aligned draws, performed on
the transformed parameter scale.

The hyperparameters theta (the K nugget variances, the lower-triangular
mixing matrix A and the decay rate) have one representation on the
sampler's scale, written by :func:`_pack_hyper` and read by
:func:`_unpack_hyper`: log nuggets, then A's free entries column-major with
the diagonal logged (index pairs from :func:`_coreg_index`), then the logit
of the rate within its bounds (decoded by :func:`_rate`).  This packed
vector is also the batch sampler's only theta state: its random walks, its
block proposal, its log prior (:func:`_log_prior`), its stored draws and
the parameter names all use these coordinates.

Every sampler owns its generator; a batch seeded identically reproduces its
draws bit for bit, so batches may run in parallel worker processes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, qr
from scipy.linalg.blas import dtrsm, dtrsv

from .lmc import (
    Coregionalization,
    CovarianceNotPDError,
    DayBlocks,
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
    coreg_diag_log_sd^2) on it; the nugget variances get inverse-gamma on
    tau^2; the decay rate is uniform on ``decay_bounds``, the
    effective-range window of the domain.
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
    closed-form tests isolate a single conditional.  The residual field w
    is never drawn: every step integrates it out, and interpolation
    conditions on the data instead (:func:`specdown.evaluate.predict`).
    ``update_w=False`` holds the field at zero, so every step sees the
    nugget diagonal alone.
    """

    iterations: int = 5000
    burnin: int = 2000
    thin: int = 3
    step_decay: float = 0.8
    step_coreg: float = 0.3
    adapt: bool = True
    seed: int = 0
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
        for name in ("step_decay", "step_coreg"):
            if not 0 < float(getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.init_nugget2 is not None:
            nugget2 = np.asarray(self.init_nugget2, dtype=float)
            if not np.all((nugget2 > 0) & (nugget2 < np.inf)):
                raise ValueError("init_nugget2 entries must be positive and finite")

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
    return OlsFit(coef=coef, se=se, sigma2=sigma2, cov_unit=cov_unit, df=df)


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
        """The natural-scale view of the draws, column for column: nugget
        variances and the mixing diagonal exponentiated, the decay mapped
        into its bounds.  It is derived on request and never stored."""
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
    lower = np.zeros(v.shape[:-1] + (K * K,))
    lower[..., rows * K + cols] = v[..., K:-1]
    diag = np.arange(K) * (K + 1)
    lower[..., diag] = np.exp(lower[..., diag])
    return np.exp(v[..., :K]), lower.reshape(v.shape[:-1] + (K, K)), v[..., -1]


def _rate(u, bounds):
    """Decay rate from its logit within ``bounds``."""
    lo, hi = bounds
    return lo + (hi - lo) / (1.0 + np.exp(-u))


@functools.lru_cache(maxsize=None)
def _mixing_half_precision(K: int, diag_log_sd: float, offdiag_sd: float) -> tuple:
    """1 / (2 sd^2) of each packed mixing entry's normal prior."""
    rows, cols = _coreg_index(K)
    return tuple((0.5 / np.where(rows == cols, diag_log_sd, offdiag_sd) ** 2).tolist())


def _log_prior(theta: np.ndarray, K: int, priors: Priors) -> float:
    """Log prior density of the packed theta, up to a constant.

    Each coordinate carries the log-Jacobian of its transform: the IG
    nuggets and the LN mixing diagonal on the log scale, the normal
    off-diagonal entries as they are, the uniform rate on the logit scale,
    where the Jacobian log s (1 - s), s = expit(u), is -|u| - 2 log(1 + e^-|u|).
    The sums run on Python floats: theta is short, and every move calls this.
    """
    half_prec = _mixing_half_precision(K, priors.coreg_diag_log_sd, priors.coreg_offdiag_sd)
    v = theta.tolist()
    abs_u = abs(v[-1])
    return (
        -priors.nugget_shape * sum(v[:K])
        - priors.nugget_scale * sum(np.exp(-theta[:K]).tolist())
        - sum(h * m * m for h, m in zip(half_prec, v[K:-1]))
        - abs_u
        - 2.0 * math.log1p(math.exp(-abs_u))
    )


# ---------------------------------------------------------------------------
# The batch sampler
# ---------------------------------------------------------------------------


def _solve_lower(L: np.ndarray, b: np.ndarray, transpose: bool = False, member=None) -> np.ndarray:
    """L^{-1} b, or L^{-T} b with ``transpose``, for lower factors L.

    Either one factor (n, n) with b (n,) or (n, m), or a stack (U, n, n)
    with b (G, n) or (G, n, m), solved day by day: b[g] against
    L[member[g]].  Without ``member`` the stack is solved factor by factor.
    """
    if L.ndim == 2:
        return _solve_lower(L[None], b[None], transpose)[0]
    if member is None:
        member = range(len(L))
    trans = 0 if transpose else 1
    out = np.empty_like(b)
    for g, u in enumerate(member):
        # Lg.T is Lg^T in Fortran order: trans=1 solves with Lg, trans=0 with Lg^T
        Lg = L[u]
        if b.ndim == 2:
            out[g] = dtrsv(Lg.T, b[g], lower=0, trans=trans)
        else:
            out[g] = dtrsm(1.0, Lg.T, b[g], lower=0, trans_a=trans)
    return out


def _factor_marginal(blocks: DayBlocks, covs, nugget2):
    """Lower factors of C + D per size group, one per layout, or None if one
    is not PD; the LMC stacks ``covs`` are left as they are."""
    try:
        return blocks.factor([C.copy() for C in covs], nugget2)
    except CovarianceNotPDError:
        return None


def _marginal_loglik(blocks: DayBlocks, chols, resids) -> float:
    """log N(resid; 0, C + D) without the 2 pi term, from the factors of C + D.

    ``resids`` holds the residual's rows per size group
    (:meth:`~specdown.lmc.DayBlocks.gather`); each day's log-determinant
    and solve use its layout's factor.
    """
    total = 0.0
    for member, L, r in zip(blocks.member, chols, resids):
        z = _solve_lower(L, r, member=member)
        log_diag = np.log(np.diagonal(L, axis1=1, axis2=2)).take(member, axis=0)
        total += -0.5 * float(np.einsum("gn,gn->", z, z)) - float(log_diag.sum())
    return total


def _gls_gram(blocks: DayBlocks, chols, Xys) -> np.ndarray:
    """[X | y]' S^{-1} [X | y] for S = C + D, from the factors of C + D.

    One triangular solve of L^{-1} [X | y] per day, against its layout's
    factor.  ``Xys`` holds the rows of the design with y as its last
    column, per size group (:meth:`~specdown.lmc.DayBlocks.gather`).
    """
    m = Xys[0].shape[-1]
    gram = np.zeros((m, m))
    for member, L, Xy in zip(blocks.member, chols, Xys):
        z = _solve_lower(L, Xy, member=member).reshape(-1, m)
        gram += z.T @ z
    return gram


def _draw_beta_gls(blocks: DayBlocks, chols, Xys, beta_sd: float, rng) -> np.ndarray:
    """Exact draw of beta from p(beta | theta, y) = N(V X' S^{-1} y, V).

    V^{-1} = X' S^{-1} X + I / beta_sd^2, both terms from the Gram matrix of
    :func:`_gls_gram` under the accepted factors of C + D.
    """
    gram = _gls_gram(blocks, chols, Xys)
    p = gram.shape[0] - 1
    L_prec = np.linalg.cholesky(gram[:p, :p] + np.eye(p) / beta_sd**2)
    mean = _solve_lower(L_prec, _solve_lower(L_prec, gram[:p, p]), transpose=True)
    return mean + _solve_lower(L_prec, rng.standard_normal(p), transpose=True)


class _StepAdapter:
    """Acceptance count of one proposal; if ``enabled``, its random-walk step
    is scaled toward 25-45% acceptance during burn-in."""

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
        z = _solve_lower(self.chol, v - self.mean)
        return -0.5 * (self.df + v.size) * float(np.log1p(z @ z / self.df))


def fit_batch_mcmc(
    batch: BatchData,
    variant: ModelVariant,
    priors: Priors,
    cfg: McmcConfig,
) -> BatchPosterior:
    """Gibbs/Metropolis sampler for one batch of a spatial variant, on the marginal model.

    Update cycle per iteration:

    1. Metropolis steps for theta against p(y | beta, tau^2, decay, A), the
       likelihood with w integrated out, which costs one Cholesky factor of
       C + D per distinct day layout and proposal (C the LMC block, D the
       nugget diagonal): days with the same (coords, pollutant) rows in the
       same order share one factor, and each day is then solved against
       it.  theta is the packed vector of :func:`_pack_hyper`, and
       every step is a move of that vector: a random walk on each free
       coordinate in turn (the logit decay, then the mixing entries, then
       the log nuggets); after burn-in, a proposal of the whole vector from
       a multivariate t fitted to the second half of burn-in.
    2. Exact draw of all coefficients from p(beta | theta, y), the
       generalized least squares conditional, whitened by the accepted
       factors of C + D.

    The residual field w is never drawn: interpolation conditions on the
    data given theta and beta instead, as composition sampling does
    (Finley, Banerjee & Gelfand 2015).  A switched-off ``update_*`` block
    holds its coordinates at their initial values; with ``update_w`` off
    the field is held at zero, so C is 0 and every step uses D alone.  The
    block proposal runs only when decay, mixing and nuggets all update.
    Every Metropolis step goes through one accept/reject path that decodes
    only what its proposal changed.  Draws kept after burn-in and thinning
    are returned.
    """
    if not variant.spatial:
        raise ValueError("fit_batch_mcmc requires a spatial variant")
    rng = np.random.default_rng(cfg.seed)
    K = batch.n_pollutants
    p = batch.p
    X, y = batch.X, batch.y
    pol_row = batch.layout.pollutant
    blocks = DayBlocks(batch.layout, K)
    Xys = blocks.gather(np.column_stack([X, y]))
    bounds = tuple(priors.decay_bounds)

    # deterministic initial state; the rate starts mid-bounds, at logit 0
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid0 = y - X @ beta
    nugget2 = np.empty(K)
    lower = np.zeros((K, K))
    for k in range(K):
        rk = resid0[pol_row == k]
        nugget2[k] = max(0.5 * rk.var(), 1e-4) if rk.size > 1 else 0.1
        lower[k, k] = max(np.sqrt(0.5) * rk.std(), 1e-2) if rk.size > 1 else 0.3
    if cfg.init_nugget2 is not None:
        nugget2 = np.asarray(cfg.init_nugget2, dtype=float)
        if nugget2.shape != (K,):
            raise ValueError(f"init_nugget2 needs {K} entries, one per pollutant; got {nugget2.size}")
    theta = _pack_hyper(nugget2, lower, 0.0)
    lp = _log_prior(theta, K, priors)

    def field_covs(cross, corr):
        """The LMC blocks C per size group; zero while the field is held at zero."""
        if not cfg.update_w:
            return [np.zeros_like(R) for R in corr]
        return blocks.cov(cross, corr)

    cross = lower @ lower.T
    corr = blocks.corr(_rate(0.0, bounds))
    covs = field_covs(cross, corr)
    chols = _factor_marginal(blocks, covs, nugget2)
    if chols is None:
        raise McmcError("marginal covariance not positive definite even after jitter")

    def move(theta_p, log_q_ratio=0.0) -> bool:
        """Metropolis test of theta' against marginal and prior; moves the state if accepted.

        ``log_q_ratio`` is log q(theta | theta') - log q(theta' | theta),
        zero for a random walk.  theta is replaced, never written in place.
        The correlation is rebuilt only when the rate changes, the cross
        block only when the mixing entries do, and the covariances only
        when either does.
        """
        nonlocal theta, lp, corr, cross, covs, chols, ll
        changed = (theta_p != theta).tolist()
        corr_p = blocks.corr(_rate(theta_p[-1], bounds)) if changed[-1] else corr
        cross_p = cross
        if any(changed[K:-1]):
            lower_p = _unpack_hyper(theta_p, K)[1]
            cross_p = lower_p @ lower_p.T
        covs_p = covs if corr_p is corr and cross_p is cross else field_covs(cross_p, corr_p)
        chols_p = _factor_marginal(blocks, covs_p, np.exp(theta_p[:K]))
        logu = np.log(rng.uniform())
        if chols_p is None:
            return False
        ll_p = _marginal_loglik(blocks, chols_p, resids)
        lp_p = _log_prior(theta_p, K, priors)
        if not logu < ll_p - ll + lp_p - lp + log_q_ratio:
            return False
        theta, lp, corr, cross, covs = theta_p, lp_p, corr_p, cross_p, covs_p
        chols, ll = chols_p, ll_p
        return True

    names, transforms = _theta_labels(K)
    decay_i = len(names) - 1
    walk = (
        ([decay_i] if cfg.update_decay else [])
        + (list(range(K, decay_i)) if cfg.update_coreg else [])
        + (list(range(K)) if cfg.update_nugget else [])
    )
    steps = [_StepAdapter(cfg.step_coreg, cfg.adapt) for _ in range(decay_i)]
    steps.append(_StepAdapter(cfg.step_decay, cfg.adapt))
    block = _StepAdapter(None, enabled=False)
    block_moves = cfg.adapt and cfg.update_decay and cfg.update_coreg and cfg.update_nugget
    block_history = []
    block_proposal = None

    kept = np.empty((cfg.n_draws, p + len(names)))
    keep_i = 0

    for it in range(cfg.iterations):
        adapting = it < cfg.burnin
        resids = blocks.gather(y - X @ beta)  # the walk leaves beta fixed
        if walk:
            ll = _marginal_loglik(blocks, chols, resids)

        # (1a) random walk on each free coordinate of theta in turn
        for i in walk:
            theta_p = theta.copy()
            theta_p[i] += steps[i].step * rng.standard_normal()
            steps[i].record(move(theta_p), adapting)

        # (1b) the whole vector from the proposal fitted during burn-in
        if block_proposal is not None:
            theta_p = block_proposal.draw(rng)
            log_q_ratio = block_proposal.logpdf(theta) - block_proposal.logpdf(theta_p)
            block.record(move(theta_p, log_q_ratio), adapting)
        elif block_moves and adapting and it >= cfg.burnin // 2:
            block_history.append(theta)
            if it == cfg.burnin - 1:
                block_proposal = _IndependenceProposal.fit(block_history)

        # (2) coefficients, exact given theta
        if cfg.update_beta:
            beta = _draw_beta_gls(blocks, chols, Xys, priors.beta_sd, rng)

        if it >= cfg.burnin and (it - cfg.burnin) % cfg.thin == 0:
            kept[keep_i, :p] = beta
            kept[keep_i, p:] = theta
            keep_i += 1

    labels = (
        list(batch.design.column_labels())
        if batch.design is not None
        else [f"beta[{i}]" for i in range(p)]
    )
    acceptance = {name.split(".")[0]: step.rate for name, step in zip(names, steps)}
    acceptance["block"] = block.rate

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
    :func:`~specdown.lmc.chol_pd`, with a warning.  A batch of n <= P draws
    for P parameters always has a singular covariance, whose null directions
    the jitter then pins to the batch means: when the shortest batch is that
    short, one warning names both counts in place of the per-batch ones.
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
    if n_draws <= P:
        warnings.warn(
            f"{n_draws} kept draws for {P} parameters: every batch covariance that short is "
            "singular, so consensus pins its null directions to the batch means",
            stacklevel=2,
        )

    weights = []
    for post in posteriors:
        L, jittered = chol_pd(post.sample_cov)
        if jittered and post.n_draws > P:
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
    log-densities with covariance C_d + diag(nugget).  A C + D that does not
    factor even with jitter raises
    :class:`~specdown.lmc.CovarianceNotPDError`.
    """
    blocks = DayBlocks(batch.layout, batch.n_pollutants)
    chols = blocks.factor(blocks.cov(coreg.cross_cov(), blocks.corr(decay.rate)), nugget2)
    loglik = _marginal_loglik(blocks, chols, blocks.gather(batch.y - batch.X @ beta))
    return float(loglik - 0.5 * batch.n * np.log(2.0 * np.pi))
