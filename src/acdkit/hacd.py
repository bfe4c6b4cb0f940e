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

Fit and score read the feature sources one image row at a time (see
`acdkit.features`).  The one moment routine, ``_moments``, sums products
of mean-centred row blocks in one pass; its feed is each output row's
vectors from ``rows()``, or, for two patch sources of one size, the
padded-row windows that neighbouring pixels' patches share.
"""

from __future__ import annotations

import itertools
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
        if not np.isfinite(self.ridge):
            raise SingularCovariance(f"ridge {self.ridge!r} is not finite")
        # checked after symmetrising, where entries above half the float64
        # range overflow: a non-finite covariance is refused here, not saved
        with np.errstate(over="ignore", invalid="ignore"):
            scale = float(np.abs(c).max()) or 1.0
            if float(np.abs(c - c.T).max()) > 1e-10 * scale:
                raise SingularCovariance("covariance is not symmetric within 1e-10 relative")
            c = np.ascontiguousarray((c + c.T) / 2.0)
        for name, val in (("mean_x", mx), ("mean_y", my), ("covariance", c)):
            if not np.isfinite(val).all():
                raise SingularCovariance(f"{name} has non-finite entries")

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

    One pass of ``_moments`` gives the moments.  Two PatchWindows of one
    patch size feed it their padded-row windows (``row_windows()``); every
    other pair feeds it ``rows()``.

    Raises GridMismatch when the stacks disagree and SingularCovariance
    when the regularized covariance cannot be factorized (e.g. fewer
    pixels than d_x + d_y with ridge 0).
    """
    _check_grids(x, y)
    if isinstance(x, PatchWindows) and isinstance(y, PatchWindows) and x.patch == y.patch:
        mean, cov = _moments(x.row_windows(), y.row_windows(), x.patch, x.height, x.width)
    else:
        mean, cov = _moments(x.rows(), y.rows(), 1, x.height, x.width)
    eps = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / len(cov) if ridge is None else float(ridge)
    return HacdModel.from_covariance(mean[: x.dim], mean[x.dim :], cov, ridge=eps)


def _moments(xs, ys, s: int, h: int, w: int):
    """(mean, population covariance) of the [x | y] vectors of an h x w grid.

    ``xs`` and ``ys`` each yield h+s-1 blocks, of shape (w, k_x) and (w,
    k_y); W_b is block b's (w, k) matrix [x | y] less the first block's
    mean.  Pixel (r, c)'s vector is W_r .. W_{r+s-1} at column c (x parts,
    then y parts), so product block (i, i+t) sums W_a' W_{a+t} over a = i
    .. i+h-1.  Each block is copied into a ring of the last s blocks (so a
    source may reuse its buffer) less its column means u_b, as C_b; then
    W_a' W_{a+t} = C_a' C_{a+t} + w u_a u_{a+t}'.  One walk sums C_a'
    C_{a+t} (t < s), block i being the running sum after block h+i-1 less
    the one after block i-1; the u part is added at the end about block
    i's mean.  With every block about its own mean, neither an offset nor
    a drift across blocks costs digits.
    """
    feed = zip(xs, ys)
    x0, y0 = next(feed)
    kx, k = x0.shape[1], x0.shape[1] + y0.shape[1]
    shift = np.concatenate([x0.mean(axis=0), y0.mean(axis=0)])
    feed = itertools.chain([(x0, y0)], feed)
    # ring[:, b % s] holds C_b, so C_a' ring gives C_a' C_{a+t} in slot (a+t) % s
    ring = np.empty((w, s, k))
    ones = np.ones(w)
    u = np.empty((h + s - 1, k))  # [b] = W_b's column means
    gram = np.zeros((k, s, k))  # [q, t, q']: sum of C_a' C_{a+t}
    blocks = np.zeros((s, k, s, k))  # [i] = gram summed over a = i .. i+h-1

    def enter(b):
        xb, yb = next(feed)
        c = ring[:, b % s]
        mx, my = ones @ xb / w, ones @ yb / w  # GEMVs: faster than .mean(axis=0)
        np.subtract(xb, mx, out=c[:, :kx])
        np.subtract(yb, my, out=c[:, kx:])
        # c's column means are the rounding of mx and my; u takes them back
        u[b] = np.concatenate([mx, my]) - shift + ones @ c / w

    for b in range(s - 1):
        enter(b)
    for a in range(h + s - 1):
        # block a+s-1 takes block a-1's slot; past the last block a slot
        # keeps stale data, which only sums that no block reads ever see
        if a < h:
            enter(a + s - 1)
        # ring' C_a, not C_a' ring: on OpenBLAS 0.3.31 only this form
        # gives the same bits at one and two threads
        slots = (ring.reshape(w, s * k).T @ ring[:, a % s]).T.reshape(k, s, k)
        gram += slots[:, (a + np.arange(s)) % s]
        # gram now covers blocks 0..a
        if a + 1 < s:
            blocks[a + 1] -= gram
        if a + 1 >= h:
            blocks[a + 1 - h] += gram

    mean = np.stack([u[i : i + h].mean(axis=0) for i in range(s)])  # [i, q], less shift
    scatter = np.empty((s, k, s, k))  # [i, q, i', q']
    for i in range(s):
        for t in range(s - i):
            dev = (u[i : i + h] - mean[i]).T @ (u[i + t : i + t + h] - mean[i + t])
            block = blocks[i, :, t] + w * dev
            scatter[i, :, i + t] = block
            scatter[i + t, :, i] = block.T
    # [i, q] -> the x halves of every block, then the y halves
    order = np.arange(s * k).reshape(s, k)
    order = np.concatenate([order[:, :kx].ravel(), order[:, kx:].ravel()])
    mean += shift
    return mean.ravel()[order], scatter.reshape(s * k, s * k)[np.ix_(order, order)] / (h * w)


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
