"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so the trace keeps the monotone
clamp b~(t) = max_{s<=t} max(0, b(s)) on its sample grid.  Volume and rate
queries between grid points belong to the path (abprobe.path.PathModel).

omega comes from exact Davies-Harte synthesis.  Its two length-m real
transforms (the embedding's eigenvalues and the synthesis) run as length-m/2
complex ones plus an O(m) pre- or post-pass, in place by a four-step FFT
(Bailey 1990) over numpy's batched transforms, whose only scratch is one
lane of the transform grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FbmParams",
    "FbmTrace",
    "fgn_davies_harte",
    "generate_trace",
    "trace_from_samples",
]


def _next_fast_len(target: int) -> int:
    """Smallest even 5-smooth integer >= target (the embedding needs an even
    size; 5-smooth keeps the FFT O(m log m))."""
    best = 2
    while best < target:
        best *= 2
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            m = 2 * p5
            while m < target:
                m *= 2
            best = min(best, m)
            p5 *= 5
        p3 *= 3
    return best


def fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact fractional Gaussian noise on a unit grid via circulant embedding.

    Returns n zero-mean unit-variance increments with autocovariance
    gamma(k) = 0.5*(|k+1|^2H - 2|k|^2H + |k-1|^2H).  The embedding is padded
    to a 5-smooth length m for FFT speed; if the padded embedding has negative
    eigenvalues it falls back to the minimal 2n one, which is nonnegative
    definite for fGn at any H in (0, 1).  Tiny negative eigenvalues are
    clipped, anything worse raises.

    The length-m real inverse transform runs as a length-m/2 complex one
    whose output y[j] = x[2j] + i*x[2j+1] is x in natural order.  It works in
    place on one buffer of m/2 complex points, so the synthesis peaks at about
    20 B per embedding point: the m normals, that buffer and the cached scale.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 1:
        raise ValueError(f"need at least one increment, got n={n}")
    if n == 1:
        return rng.standard_normal(1)

    key = (n, hurst)
    scale = _SCALE_CACHE.get(key)
    if scale is None:
        for m in (_next_fast_len(2 * n), 2 * n):
            lam = _embedding_eigenvalues(n, hurst, m)
            if lam is not None:
                break
        else:
            raise RuntimeError(f"circulant embedding failed for n={n}, H={hurst}")
        # per-bin scale sqrt(m*lam/2); the real bins 0 and m/2 take sqrt(m*lam)
        lam *= m
        lam[1 : m // 2] /= 2.0
        scale = np.sqrt(lam, out=lam)
        if len(_SCALE_CACHE) >= 4:
            _SCALE_CACHE.pop(next(iter(_SCALE_CACHE)))
        _SCALE_CACHE[key] = scale

    # Hermitian spectral synthesis: m real normals -> one exact sample path.
    # spec holds the real and the imaginary parts of bins 0..half; bins 0 and
    # half are real, so the imaginary parts move up one slot past a zero.
    half = len(scale) - 1
    m = 2 * half
    spec = np.empty((2, half + 1))
    flat = spec.reshape(-1)
    rng.standard_normal(out=flat[:m])
    flat[half + 2 : m + 1] = flat[half + 1 : m]
    spec[1, 0] = spec[1, half] = 0.0
    spec *= scale
    re, im = spec
    # y = ifft of C[k] = W + g*(X[k] - W), W = conj X[half-k], built one block
    # of C at a time in natural order and laid out for _fft_inplace
    grid = np.empty(_grid_shape(half), dtype=complex)
    l1 = grid.shape[0]
    for a, b, g in _blocks(grid.shape):
        s, e = a * l1, b * l1
        c = np.empty(e - s, dtype=complex)
        c.real, c.imag = re[s:e], im[s:e]
        w = np.empty_like(c)
        w.real = re[half - s : half - e : -1]
        np.negative(im[half - s : half - e : -1], out=w.imag)
        c -= w
        c *= g
        c += w
        grid[:, a:b] = c.reshape(b - a, l1).T
    _fft_inplace(grid, inverse=True)
    return grid.reshape(-1).view(float)[:n]


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _embedding_eigenvalues(n: int, hurst: float, m: int) -> np.ndarray | None:
    """Eigenvalues of the size-m circulant embedding, or None if indefinite."""
    if m % 2:
        raise ValueError(f"embedding size must be even, got {m}")
    half = m // 2
    # q[k] = k^2H once; gamma(k) = 0.5*((q[k+1] - 2q[k]) + q[|k-1|]) is
    # written with its mirror straight into the circulant's first row
    q = np.arange(half + 2, dtype=float) ** (2.0 * hurst)
    row = np.empty(m)
    gamma = row[: half + 1]
    np.multiply(q[: half + 1], 2.0, out=gamma)
    np.subtract(q[1:], gamma, out=gamma)
    gamma[0] += q[1]
    gamma[1:] += q[:half]
    gamma *= 0.5
    row[half + 1 :] = gamma[half - 1 : 0 : -1]
    del q, gamma
    # Y = fft of y[j] = row[2j] + i*row[2j+1]; the real eigenvalues 0..half are
    # lam[k] = Re(W + g*(conj Y[k] - W)), W = Y[half-k]
    grid = row.view(complex).reshape(_grid_shape(half))
    _fft_inplace(grid, inverse=False)
    l1, l2 = grid.shape
    lam = np.empty(half + 1)
    lam[half] = grid[0, 0].real - grid[0, 0].imag  # the formula at k = half
    for a, b, g in _blocks(grid.shape):
        y = grid[:, a:b].T.flatten()
        np.conjugate(y, out=y)
        # Y[half-k] for k = a*l1 .. b*l1-1: columns l2-b .. l2-a (column l2 is column 0)
        w = grid[:, np.arange(l2 - b, l2 - a + 1) % l2].T.reshape(-1)[(b - a) * l1 : 0 : -1]
        y -= w
        y *= g
        y += w
        lam[a * l1 : b * l1] = y.real
    if lam.min() < -1e-8 * lam.max():
        return None
    np.clip(lam, 0.0, None, out=lam)
    return lam


def _grid_shape(length: int) -> tuple[int, int]:
    """(L1, L2) with L1*L2 = length and L1 the largest divisor <= sqrt(length)."""
    l1 = math.isqrt(length)
    while length % l1:
        l1 -= 1
    return l1, length // l1


def _roots(k: np.ndarray, order: int) -> np.ndarray:
    """exp(2i*pi*k/order) for integer k, reduced mod order before scaling."""
    return np.exp(2j * np.pi / order * (k % order))


_BLOCK = 1 << 16  # complex points per block of the pre- and post-pass


def _blocks(shape: tuple[int, int]) -> Iterator[tuple[int, int, np.ndarray]]:
    """Blocks of an (L1, L2) grid in natural order, for the half-length real
    transform's pre- and post-pass: yields (a, b, g) for grid columns a..b-1,
    which hold the points k = a*L1 .. b*L1-1, and g = (1 + i*e^(i*pi*k/L))/2
    over those k in natural order (a fresh array)."""
    l1, l2 = shape
    row = 0.5j * _roots(np.arange(l1), 2 * l1 * l2)
    cols = max(1, _BLOCK // l1)
    for a in range(0, l2, cols):
        b = min(a + cols, l2)
        g = np.multiply.outer(_roots(np.arange(a, b), 2 * l2), row)
        g += 0.5
        yield a, b, g.reshape(-1)


def _fft_inplace(grid: np.ndarray, inverse: bool) -> None:
    """In-place complex DFT of length L = L1*L2 on a C-contiguous (L1, L2) grid.

    Four-step (Bailey 1990): transform along one axis, twiddle, transform
    along the other.  numpy transforms a batch one lane at a time, so the only
    scratch is one lane.  Forward (numpy's fft) reads the input from
    grid.reshape(-1) and leaves Y[k1 + L1*k2] at grid[k1, k2], i.e. the
    spectrum in natural order along grid.T; inverse (numpy's ifft) is the
    exact reverse.  With L1 = 1 (a prime L) the grid is one lane.
    """
    l1, l2 = grid.shape
    sign = 1 if inverse else -1
    transform = np.fft.ifft if inverse else np.fft.fft
    transform(grid, axis=1 if inverse else 0, out=grid)
    # grid[k1, j2] *= e^(sign*2i*pi*k1*j2/L), `step` rows at a time: row
    # a + r takes table[r] * e^(sign*2i*pi*a*j2/L); a single row needs none
    if l1 > 1:
        step = math.isqrt(l1)
        j2 = sign * np.arange(l2)
        table = _roots(np.multiply.outer(np.arange(step), j2), l1 * l2)
        for a in range(0, l1, step):
            rows = grid[a : a + step]
            rows *= table[: len(rows)] * _roots(a * j2, l1 * l2)
    transform(grid, axis=0 if inverse else 1, out=grid)


@dataclass(frozen=True)
class FbmParams:
    """Parameters of one cross-traffic trace.

    hurst    self-similarity index H, 0 < H < 1
    sigma    fluctuation factor (bits * s^-H)
    mu       mean rate (bits/s)
    dt       sample grid spacing (s)
    horizon  total trace duration (s)
    seed     RNG seed
    """

    hurst: float
    sigma: float
    mu: float
    dt: float
    horizon: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.horizon < self.dt:
            raise ValueError(f"horizon must be >= dt, got {self.horizon} < {self.dt}")

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.horizon / self.dt + 1e-9)) + 1


class FbmTrace:
    """A sampled omega(t) path plus the clamped cumulative-volume grid.

    Immutable after construction, so a trace may be shared freely across
    workers.
    """

    def __init__(self, params: FbmParams, omega: np.ndarray):
        omega = np.asarray(omega, dtype=float)
        if omega.ndim != 1 or omega.shape[0] != params.n_samples:
            raise ValueError(
                f"omega must have {params.n_samples} samples, got shape {omega.shape}"
            )
        if omega[0] != 0.0:
            raise ValueError("omega must start at zero")
        self.params = params
        self.omega = omega
        raw = np.arange(omega.shape[0], dtype=float)
        raw *= params.dt
        raw *= params.mu
        raw += params.sigma * omega
        # monotone clamp: running max of max(0, raw)
        cum = np.maximum(raw, 0.0)
        np.maximum.accumulate(cum, out=cum)
        # fraction of grid points where the monotone clamp altered raw b(t)
        self.clamp_fraction = float(np.mean(cum > raw))
        self._cum = cum
        for arr in (self.omega, self._cum):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def cum_grid(self) -> np.ndarray:
        """Clamped cumulative bits at grid points (non-decreasing)."""
        return self._cum


def generate_trace(params: FbmParams) -> FbmTrace:
    """Synthesize omega on the dt grid; bit-for-bit reproducible per seed."""
    rng = np.random.default_rng(params.seed)
    n_incr = params.n_samples - 1
    incr = fgn_davies_harte(n_incr, params.hurst, rng)
    incr *= params.dt**params.hurst
    omega = np.empty(n_incr + 1)
    omega[0] = 0.0
    np.cumsum(incr, out=omega[1:])
    del incr  # a view that keeps the whole FFT output alive
    return FbmTrace(params, omega)


def trace_from_samples(params: FbmParams, omega: np.ndarray) -> FbmTrace:
    """Wrap a float copy of externally supplied omega samples (e.g. built by
    hand); the trace freezes its own array, so the caller's stays writable."""
    return FbmTrace(params, np.array(omega, dtype=float))
