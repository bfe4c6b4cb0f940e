"""Joint-Gaussian anomalous change scoring and the image-differencing baseline.

The detector models the per-pixel feature pair (x, y) of the two epochs as
jointly Gaussian and scores a pixel by the negative log ratio of the joint
density to the product of the marginals.  With C the fitted joint
covariance (x block first) and z the mean-centered stacked vector, the
score is

    score(x, y) = 0.5 * z' Q z + k
    Q = inv(C) - blockdiag(inv(C_xx), inv(C_yy))
    k = 0.5 * (logdet C - logdet C_xx - logdet C_yy)

which is the exact value of the log density ratio, normalization constants
included, so scores are directly comparable against density oracles and
across detectors.  Independent x and y give Q = 0, k = 0, score = 0.

Scoring evaluates the same value in canonical-correlation coordinates, the
transform behind MAD change detection (Nielsen, Conradsen & Simpson 1998).
With C_xx = L_x L_x' and C_yy = L_y L_y' (Cholesky), the thin SVD
L_x^-1 C_xy L_y^-T = U diag(rho) V' gives A = L_x^-T U and B = L_y^-T V, and
the canonical variates u = (x - mu_x) A, v = (y - mu_y) B have identity
marginal covariances and cross-covariance diag(rho).  Then

    score(x, y) = 0.5 * sum_i [alpha_i (u_i^2 + v_i^2) - 2 beta_i u_i v_i] + k
    alpha = rho^2 / (1 - rho^2),  beta = rho / (1 - rho^2)
    k = 0.5 * sum_i log(1 - rho_i^2)

which costs n * (d_x + d_y) * min(d_x, d_y) multiply-adds for n pixels
instead of the n * (d_x + d_y)^2 of z' Q z.

Fit and score read the feature sources one image row at a time through
``rows()`` (see `acdkit.features`).  The fit merges each row's moments into
running totals.  Patch vectors of neighbouring pixels overlap, so a fit of
two patch sources of one size instead sums products of padded-row windows
once per row and reads every patch-row block of the scatter off those
sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FormatError, GridMismatch, SingularCovariance
from .features import FeatureStack, GlcmCounts, PatchWindows
from .raster import CoregisteredPair, read_json, write_text

DEFAULT_RIDGE_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class AnomalyMap:
    """Per-pixel anomalousness, higher = more anomalous; shape (height, width)."""

    scores: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.scores, dtype=np.float64))
        if a.ndim != 2:
            raise ValueError(f"scores must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("anomaly map contains non-finite scores")
        a.setflags(write=False)
        object.__setattr__(self, "scores", a)

    @property
    def width(self) -> int:
        return self.scores.shape[1]

    @property
    def height(self) -> int:
        return self.scores.shape[0]


def _cholesky(c: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``c``, or SingularCovariance."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        lo = float(np.linalg.eigvalsh(c).min())
        raise SingularCovariance(
            f"{what} is not positive definite (smallest eigenvalue {lo:.6g}); "
            "increase the ridge"
        ) from exc


@dataclass(frozen=True, eq=False)
class HacdModel:
    """Fitted joint-Gaussian parameters plus precomputed scoring terms.

    ``cov`` is the ridge-regularized joint covariance actually used for
    scoring; ``ridge`` records the epsilon that was added to its diagonal
    at fit time.  The marginal blocks are its top-left d_x x d_x and
    bottom-right d_y x d_y submatrices.  ``canon_x`` (d_x x r) and
    ``canon_y`` (d_y x r) map centered features to canonical variates whose
    correlations are ``rho`` (r = min(d_x, d_y), descending).
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    cov: np.ndarray
    ridge: float = 0.0
    canon_x: np.ndarray = field(init=False, repr=False)
    canon_y: np.ndarray = field(init=False, repr=False)
    rho: np.ndarray = field(init=False, repr=False)
    log_det_const: float = field(init=False, repr=False)

    def __post_init__(self):
        mx = np.ascontiguousarray(np.asarray(self.mean_x, dtype=np.float64).ravel())
        my = np.ascontiguousarray(np.asarray(self.mean_y, dtype=np.float64).ravel())
        c = np.asarray(self.cov, dtype=np.float64)
        d = mx.size + my.size
        if mx.size < 1 or my.size < 1:
            raise DimensionMismatch("feature dimensions must each be >= 1")
        if c.shape != (d, d):
            raise DimensionMismatch(f"covariance shape {c.shape} does not match d={d}")
        for name, val in (("mean_x", mx), ("mean_y", my), ("covariance", c)):
            if not np.isfinite(val).all():
                raise SingularCovariance(f"{name} has non-finite entries")
        if not np.isfinite(self.ridge):
            raise SingularCovariance(f"ridge {self.ridge!r} is not finite")
        scale = float(np.abs(c).max()) or 1.0
        if float(np.abs(c - c.T).max()) > 1e-10 * scale:
            raise SingularCovariance("covariance is not symmetric within 1e-10 relative")
        c = np.ascontiguousarray((c + c.T) / 2.0)

        dx = mx.size
        _cholesky(c, "joint covariance")  # only the positive-definiteness check
        lx = _cholesky(c[:dx, :dx], "x-marginal covariance")
        ly = _cholesky(c[dx:, dx:], "y-marginal covariance")
        solve = np.linalg.solve
        whitened_xy = solve(ly, solve(lx, c[:dx, dx:]).T).T
        u, rho, vt = np.linalg.svd(whitened_xy, full_matrices=False)
        if rho[0] >= 1.0:
            raise SingularCovariance(
                f"x and y are perfectly correlated (canonical correlation {rho[0]:.17g}); "
                "increase the ridge"
            )
        canon_x = solve(lx.T, u)
        canon_y = solve(ly.T, vt.T)

        for name, val in (("mean_x", mx), ("mean_y", my), ("cov", c),
                          ("canon_x", canon_x), ("canon_y", canon_y), ("rho", rho)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "log_det_const", 0.5 * float(np.sum(np.log1p(-rho * rho))))

    @property
    def d_x(self) -> int:
        return self.mean_x.size

    @property
    def d_y(self) -> int:
        return self.mean_y.size

    @property
    def cov_xx(self) -> np.ndarray:
        return self.cov[: self.d_x, : self.d_x]

    @property
    def cov_yy(self) -> np.ndarray:
        return self.cov[self.d_x :, self.d_x :]

    @property
    def cov_xy(self) -> np.ndarray:
        return self.cov[: self.d_x, self.d_x :]

    @classmethod
    def from_covariance(
        cls, mean_x: np.ndarray, mean_y: np.ndarray, cov: np.ndarray, ridge: float = 0.0
    ) -> "HacdModel":
        """Build a model from explicit Gaussian parameters, adding ridge*I."""
        c = np.asarray(cov, dtype=np.float64)
        if not np.isfinite(ridge):
            raise SingularCovariance(f"ridge {ridge!r} is not finite")
        if ridge:
            c = c + ridge * np.eye(c.shape[0])
        return cls(mean_x, mean_y, c, ridge=float(ridge))


Features = FeatureStack | PatchWindows | GlcmCounts


def _check_grids(x: Features, y: Features) -> None:
    if (x.height, x.width) != (y.height, y.width):
        raise GridMismatch(
            f"x grid {x.width}x{x.height} != y grid {y.width}x{y.height}"
        )


def fit_hacd(x: Features, y: Features, ridge: float | None = None) -> HacdModel:
    """Fit the joint Gaussian over all pixels of the scene (in-sample).

    ``x`` and ``y`` are feature sources (FeatureStack, PatchWindows or
    GlcmCounts) on one grid.  Mean and covariance are the sample mean and
    population covariance (denominator N) of the stacked per-pixel vectors
    [x; y].  ``ridge`` is the epsilon added to the covariance diagonal
    before inversion; None selects the default 1e-6 * trace(C) / (d_x +
    d_y).

    Two PatchWindows of one patch size are fitted from running sums over
    the padded rows (``_patch_moments``); every other fit merges the
    moments of each row (``_row_moments``).  Both take one pass and agree
    to rounding.

    Raises GridMismatch when the stacks disagree and SingularCovariance
    when the regularized covariance cannot be factorized (e.g. fewer
    pixels than d_x + d_y with ridge 0).
    """
    _check_grids(x, y)
    d = x.dim + y.dim
    patches = isinstance(x, PatchWindows) and isinstance(y, PatchWindows)
    if patches and x.patch == y.patch:
        n, mean, scatter = _patch_moments(x, y)
    else:
        n, mean, scatter = _row_moments(x, y)
    cov = scatter / n

    eps = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / d if ridge is None else float(ridge)
    return HacdModel.from_covariance(mean[: x.dim], mean[x.dim :], cov, ridge=eps)


def _row_moments(x: Features, y: Features):
    """(count, mean, centered scatter) of the [x | y] vectors, one pass over rows.

    Each row's (count, mean, centered scatter) is merged into the running
    totals in row order with the pairwise update of Chan, Golub & LeVeque
    (1983).  Moments are taken about the first row's mean, so a common
    offset that is large against the spread costs no digits.
    """
    d = x.dim + y.dim
    n, m = 0, x.width
    shift = None
    mean = np.zeros(d)
    scatter = np.zeros((d, d))
    z = np.empty((m, d))
    for xs, ys in zip(x.rows(), y.rows(), strict=True):
        z[:, : x.dim] = xs
        z[:, x.dim :] = ys
        if shift is None:
            shift = z.mean(axis=0)
        z -= shift
        row_mean = z.mean(axis=0)
        z -= row_mean
        delta = row_mean - mean
        scatter += z.T @ z
        scatter += np.outer(delta, delta) * (n * m / (n + m))
        mean += delta * (m / (n + m))
        n += m
    return n, mean + shift, scatter


def _patch_moments(x: PatchWindows, y: PatchWindows):
    """(count, mean, centered scatter) of the joint patch vectors of every pixel.

    Write W_a for the (width, 2p) matrix of padded row a's x windows then
    y windows (``row_windows``).  The vector of output row r stacks patch
    rows r .. r+p-1, so block (i, i+k) of the scatter is the sum over
    a = i .. i+h-1 of W_a' W_{a+k}: the same window products, shifted by
    one row per block step.  One walk over the h+p-1 padded rows keeps
    running sums of W_a' W_{a+k} (k < p) and of W_a's column sums; each
    block i (and its mean) is the running sum after row h+i-1 less the one
    after row i-1.  That is 2p*d multiply-adds per pixel instead of the
    row merge's d*d/2, with a ring of the last p rows' windows as the only
    buffer.  Each epoch's windows are taken about its raster mean, so a
    large common offset costs no digits.
    """
    h, w, p = x.height, x.width, x.patch
    rows = h + p - 1
    shift = (x.mean, y.mean)
    windows = (x.row_windows(), y.row_windows())
    # ring[:, b % p] holds W_b, so W_a' ring gives W_a' W_{a+k} in slot (a+k) % p
    ring = np.empty((w, p, 2, p))
    ones = np.ones(w)
    gram = np.zeros((2 * p, p, 2 * p))  # [(e, j), k, (e', j')]: sum of W_a' W_{a+k}
    total = np.zeros(2 * p)  # sum of W_a's column sums
    blocks = np.zeros((p, 2 * p, p, 2 * p))  # [i] = gram summed over a = i .. i+h-1
    sums = np.zeros((p, 2 * p))  # [i] = total summed over a = i .. i+h-1

    def enter(b):
        for e in (0, 1):
            np.subtract(windows[e][b], shift[e], out=ring[:, b % p, e])

    for b in range(p - 1):
        enter(b)
    for a in range(rows):
        # row a+p-1 takes row a-1's slot; past the last row a slot keeps
        # stale windows, which only sums that no block reads ever see
        if a + p - 1 < rows:
            enter(a + p - 1)
        lead = ring[:, a % p].reshape(w, 2 * p)
        # ring' lead, not lead' ring: on OpenBLAS 0.3.31 only this form
        # gives the same bits at one and two threads
        slots = (ring.reshape(w, 2 * p * p).T @ lead).T.reshape(2 * p, p, 2 * p)
        gram += slots[:, (a + np.arange(p)) % p]
        total += ones @ lead  # a GEMV: lead.sum(axis=0) is slower on this strided view
        # gram and total now cover rows 0..a
        if a + 1 < p:
            blocks[a + 1] -= gram
            sums[a + 1] -= total
        if a + 1 >= h:
            blocks[a + 1 - h] += gram
            sums[a + 1 - h] += total

    scatter = np.empty((2, p, p, 2, p, p))  # [e, i, j, e', i', j']
    for i in range(p):
        block = blocks[i].reshape(2, p, p, 2, p)  # [e, j, k, e', j']
        for k in range(p - i):
            scatter[:, i, :, :, i + k] = block[:, :, k]
            scatter[:, i + k, :, :, i] = block[:, :, k].transpose(2, 3, 0, 1)
    n, d = h * w, 2 * p * p
    mean = sums.reshape(p, 2, p).transpose(1, 0, 2).reshape(d) / n  # [e, i, j] order
    scatter = scatter.reshape(d, d) - n * np.outer(mean, mean)
    return n, mean + np.repeat(shift, p * p), scatter


def _scorer(m: HacdModel):
    """The score kernel of ``m``: f(x, y) scores n raw pixel vectors.

    ``x`` (n, d_x) and ``y`` (n, d_y) are the epochs' halves; each may be a
    strided view with unit inner stride, which BLAS reads in place.
    """
    shift_x, shift_y = m.mean_x @ m.canon_x, m.mean_y @ m.canon_y
    one_minus = 1.0 - m.rho * m.rho
    alpha, beta = m.rho * m.rho / one_minus, m.rho / one_minus

    def score(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = x @ m.canon_x
        u -= shift_x
        v = y @ m.canon_y
        v -= shift_y
        uv = u * v
        u *= u
        v *= v
        u += v
        return 0.5 * (u @ alpha) - uv @ beta + m.log_det_const

    return score


def hacd_score(m: HacdModel, x: np.ndarray, y: np.ndarray) -> float:
    """Score one (x, y) feature pair; the exact log density ratio value."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != m.d_x or y.size != m.d_y:
        raise DimensionMismatch(
            f"input dims ({x.size}, {y.size}) do not match model ({m.d_x}, {m.d_y})"
        )
    return float(_scorer(m)(x[None, :], y[None, :])[0])


def score_map(m: HacdModel, x: Features, y: Features) -> AnomalyMap:
    """Apply hacd_score at every pixel of a co-registered feature pair.

    ``x`` and ``y`` are feature sources, as for fit_hacd; each row's
    vectors go to the score GEMMs as the sources yield them, so patch
    vectors are read in place from strided views.
    """
    _check_grids(x, y)
    if x.dim != m.d_x or y.dim != m.d_y:
        raise DimensionMismatch(
            f"stack dims ({x.dim}, {y.dim}) do not match model ({m.d_x}, {m.d_y})"
        )
    score = _scorer(m)
    out = np.empty((x.height, x.width))
    for r, (xs, ys) in enumerate(zip(x.rows(), y.rows(), strict=True)):
        out[r] = score(xs, ys)
    return AnomalyMap(out)


def diff_score(pair: CoregisteredPair) -> AnomalyMap:
    """Absolute pixelwise difference |t1 - t0|; the baseline detector."""
    d = np.abs(pair.t1.data.astype(np.float64) - pair.t0.data.astype(np.float64))
    return AnomalyMap(d)


def save_model(m: HacdModel, path: str) -> None:
    """Serialize a model to JSON (dims, means, covariance row-major, ridge)."""
    doc = {
        "d_x": m.d_x,
        "d_y": m.d_y,
        "mean_x": m.mean_x.tolist(),
        "mean_y": m.mean_y.tolist(),
        "cov": m.cov.ravel().tolist(),
        "ridge": m.ridge,
    }
    write_text(path, json.dumps(doc, separators=(",", ":")) + "\n")


def load_model(path: str) -> HacdModel:
    """Load a model saved by save_model; the stored covariance is used as is.

    Raises NotFound when the file is missing, IoError when it cannot be read
    and FormatError when it is not a model: bad UTF-8 or JSON, a missing key,
    or arrays that do not fit d_x, d_y.
    """
    doc = read_json(path, FormatError)
    try:
        dx, dy = int(doc["d_x"]), int(doc["d_y"])
        mean_x = np.array(doc["mean_x"], dtype=np.float64).reshape(dx)
        mean_y = np.array(doc["mean_y"], dtype=np.float64).reshape(dy)
        cov = np.array(doc["cov"], dtype=np.float64).reshape(dx + dy, dx + dy)
        ridge = float(doc["ridge"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model {path} is not a valid model file: {exc!r}") from exc
    if not all(np.isfinite(a).all() for a in (mean_x, mean_y, cov, ridge)):
        raise FormatError(f"model {path} has a non-finite mean, covariance or ridge")
    return HacdModel(mean_x, mean_y, cov, ridge=ridge)
