"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so the trace keeps the monotone
clamp b~(t) = max_{s<=t} max(0, b(s)) on its sample grid.  Volume and rate
queries between grid points belong to the path (abprobe.path.PathModel).

omega comes from exact Davies-Harte synthesis.  One length-m real inverse
transform serves both the embedding's eigenvalues and the synthesis: a
length-m/2 complex one plus an O(m) pre-pass, in place by a four-step FFT
(Bailey 1990) over numpy's batched transforms, whose only scratch is one
lane of the transform grid.
"""

from __future__ import annotations

import math
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
    to a 5-smooth length m for FFT speed.  Every such embedding is
    nonnegative definite for fGn (Dieker 2004), but the cancellation in
    gamma can round one to indefinite near H = 0.9; then the minimal 2n
    embedding is tried.  Tiny negative eigenvalues are clipped; if both
    embeddings round to indefinite, ValueError (the CLI exits 2).

    The eigenvalues and the synthesis share one transform, _irfft, in place
    on one buffer of m/2 complex points, so the synthesis peaks at about
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
        lam = _embedding_eigenvalues(n, hurst)
        m = 2 * (len(lam) - 1)
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
    return _irfft(*spec)[:n]


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues 0..m/2, clipped at 0, of the circulant embedding of n fGn
    increments: the padded m = _next_fast_len(2n) or, where that one rounds
    to indefinite, the minimal m = 2n (tried only if it is shorter)."""
    for m in dict.fromkeys((_next_fast_len(2 * n), 2 * n)):
        half = m // 2
        # q[k] = k^2H once; gamma(k) = 0.5*((q[k+1] - 2q[k]) + q[|k-1|])
        q = np.arange(half + 2, dtype=float) ** (2.0 * hurst)
        gamma = np.empty(half + 1)
        np.multiply(q[: half + 1], 2.0, out=gamma)
        np.subtract(q[1:], gamma, out=gamma)
        gamma[0] += q[1]
        gamma[1:] += q[:half]
        gamma *= 0.5
        del q
        # the circulant's first row gamma(0..half), gamma(half-1..1) is real and
        # symmetric, so its eigenvalues are m * irfft(gamma), written over gamma
        lam = _irfft(gamma, np.broadcast_to(0.0, half + 1))[: half + 1]
        lam = np.multiply(lam, m, out=gamma)
        if lam.min() >= -1e-8 * lam.max():
            return np.clip(lam, 0.0, None, out=lam)
    raise ValueError(
        f"the circulant embedding of the n={n}-increment traffic trace at "
        f"hurst={hurst} rounds to indefinite; lower hurst or shorten the trace "
        "(fewer sequences, a larger packet_size or dt, or a lower capacity)"
    )


def _irfft(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """numpy's irfft(re + 1j*im, n=m) of the spectrum's bins 0..m/2 (bins 0
    and m/2 real), as the float view of one buffer of L = m/2 complex points:
    y = ifft(C), C[k] = W + g*(X[k] - W) with W = conj X[L-k] and
    g = (1 + i*e^(i*pi*k/L))/2, is y[j] = x[2j] + i*x[2j+1]."""
    half = len(re) - 1
    grid = np.empty(_grid_shape(half), dtype=complex)
    l1, l2 = grid.shape
    # C in natural order, a block of grid columns a..b-1 (the points
    # k = a*L1 .. b*L1-1) at a time, laid out for _fft_inplace
    row = 0.5j * _roots(np.arange(l1), 2 * half)
    cols = max(1, _BLOCK // l1)
    for a in range(0, l2, cols):
        b = min(a + cols, l2)
        s, e = a * l1, b * l1
        c = np.empty(e - s, dtype=complex)
        c.real, c.imag = re[s:e], im[s:e]
        w = np.empty_like(c)
        w.real = re[half - s : half - e : -1]
        np.negative(im[half - s : half - e : -1], out=w.imag)
        g = np.multiply.outer(_roots(np.arange(a, b), 2 * l2), row).reshape(-1)
        g += 0.5
        c -= w
        c *= g
        c += w
        grid[:, a:b] = c.reshape(b - a, l1).T
    _fft_inplace(grid)
    return grid.reshape(-1).view(float)


def _grid_shape(length: int) -> tuple[int, int]:
    """(L1, L2) with L1*L2 = length and L1 the largest divisor <= sqrt(length)."""
    l1 = math.isqrt(length)
    while length % l1:
        l1 -= 1
    return l1, length // l1


def _roots(k: np.ndarray, order: int) -> np.ndarray:
    """exp(2i*pi*k/order) for integer k, reduced mod order before scaling."""
    return np.exp(2j * np.pi / order * (k % order))


_BLOCK = 1 << 16  # complex points per block of _irfft's pre-pass


def _fft_inplace(grid: np.ndarray) -> None:
    """In-place inverse complex DFT (numpy's ifft) of length L = L1*L2 on a
    C-contiguous (L1, L2) grid.

    Four-step (Bailey 1990): transform along one axis, twiddle, transform
    along the other.  numpy transforms a batch one lane at a time, so the only
    scratch is one lane.  It reads the input in natural order along grid.T
    and leaves the output in natural order in grid.reshape(-1).  With L1 = 1
    (a prime L) the grid is one lane.
    """
    l1, l2 = grid.shape
    np.fft.ifft(grid, axis=1, out=grid)
    # grid[k1, j2] *= e^(2i*pi*k1*j2/L), `step` rows at a time: row a + r
    # takes table[r] * e^(2i*pi*a*j2/L); a single row needs none
    if l1 > 1:
        step = math.isqrt(l1)
        j2 = np.arange(l2)
        table = _roots(np.multiply.outer(np.arange(step), j2), l1 * l2)
        for a in range(0, l1, step):
            rows = grid[a : a + step]
            rows *= table[: len(rows)] * _roots(a * j2, l1 * l2)
    np.fft.ifft(grid, axis=0, out=grid)


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
