"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so the trace keeps the monotone
clamp b~(t) = max_{s<=t} max(0, b(s)) on its sample grid.  Volume and rate
queries between grid points belong to the path (abprobe.path.PathModel).

omega comes from exact Davies-Harte synthesis.  One length-m real inverse
transform serves both the embedding's eigenvalues and the synthesis: a
length-m/2 complex one plus an O(m) pre-pass that pairs bin k with bin
m/2-k, in place by a four-step FFT (Bailey 1990) over numpy's batched
transforms, whose only scratch is one lane of the transform grid.  The
synthesis draws its normals straight into that one buffer, so it peaks at
about 16 B per embedding point.  The normal draw, the pre-pass, the output
gather and the clamp build each run in blocks of _BLOCK points.
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
    on one buffer of m/2 complex points.  The m normals are drawn, scaled,
    straight into that buffer, so the synthesis peaks at about 16 B per
    embedding point: the buffer, the cached scale and the n increments.
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

    # Hermitian spectral synthesis: m real normals -> one exact sample path,
    # drawn in the order re[0..half] then im[1..half-1].  Bins 0..half-1 fill
    # the transform buffer; the real bin half stays a scalar.
    half = len(scale) - 1
    spec = np.empty(half, dtype=complex)
    _scaled_normals(rng, scale[:half], spec.real)
    nyquist = rng.standard_normal() * scale[half]
    _scaled_normals(rng, scale[1:half], spec.imag[1:])
    out = np.empty(n)
    _irfft(spec, nyquist, out)
    return out


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _scaled_normals(rng: np.random.Generator, scale: np.ndarray, out: np.ndarray) -> None:
    """out = scale * len(out) standard normals, drawn _BLOCK at a time (the
    same stream as one draw); out may be strided."""
    z = np.empty(min(_BLOCK, len(out)))
    for s in range(0, len(out), _BLOCK):
        e = min(s + _BLOCK, len(out))
        np.multiply(rng.standard_normal(out=z[: e - s]), scale[s:e], out=out[s:e])


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
        _irfft(gamma[:half].astype(complex), gamma[half], gamma)
        lam = np.multiply(gamma, m, out=gamma)
        if lam.min() >= -1e-8 * lam.max():
            return np.clip(lam, 0.0, None, out=lam)
    raise ValueError(
        f"the circulant embedding of the n={n}-increment traffic trace at "
        f"hurst={hurst} rounds to indefinite; lower hurst or shorten the trace "
        "(fewer sequences, a larger packet_size or dt, or a lower capacity)"
    )


def _irfft(spec: np.ndarray, nyquist: float, out: np.ndarray) -> None:
    """out = the first len(out) <= m points of numpy's irfft(X, n=m) of the
    spectrum X[0..L], L = m/2, whose bins 0..L-1 are in spec (bin 0's
    imaginary part is ignored) and whose real bin L is nyquist.  spec, which
    becomes the transform's working buffer, is overwritten.

    y = ifft(C), C[k] = W + g_k*(X[k] - W) with W = conj X[L-k] and
    g_k = 1/2 + h_k, h_k = i*e^(i*pi*k/L)/2, is y[j] = x[2j] + i*x[2j+1].
    The pre-pass runs in place, pairing bin k with bin L-k: with
    E = g_k*(X[k] - conj X[L-k]), C[k] = conj X[L-k] + E and, as
    g_(L-k) = 1/2 + conj h_k, C[L-k] = conj(X[k] - E).  Bin 0 pairs with
    the real bin L, and for even L the bin L/2 pairs with itself.
    """
    half = len(spec)
    x0 = spec[0].real
    spec[0] = complex(0.5 * (x0 + nyquist), 0.5 * (x0 - nyquist))
    mid = half // 2
    h = 0.5j * _roots(np.arange(min(_BLOCK, mid)), 2 * half)
    for s in range(1, mid + 1, _BLOCK):
        e = min(s + _BLOCK, mid + 1)
        lo = spec[s:e]  # X[k], k = s..e-1
        hi = spec[half - e + 1 : half - s + 1][::-1]  # X[L-k]
        w = np.conjugate(hi)
        g = h[: e - s] * _roots(s, 2 * half)
        g += 0.5
        g *= lo - w
        np.add(w, g, out=w)  # C[k]
        np.subtract(lo, g, out=g)
        np.conjugate(g, out=hi)  # C[L-k]
        lo[...] = w
    grid = spec.reshape(_grid_shape(half))
    _fft_inplace(grid)
    # y lies in natural order along grid.T: gather its first len(out) reals,
    # a block of grid columns (cols*L1 points of y) at a time
    l1, l2 = grid.shape
    cols = max(1, _BLOCK // l1)
    for a in range(0, min(l2, -(-len(out) // (2 * l1))), cols):
        s = 2 * a * l1
        y = grid[:, a : a + cols].T.copy().reshape(-1).view(float)
        out[s : s + len(y)] = y[: len(out) - s]


def _grid_shape(length: int) -> tuple[int, int]:
    """(L1, L2) with L1*L2 = length and L1 the largest divisor <= sqrt(length)."""
    l1 = math.isqrt(length)
    while length % l1:
        l1 -= 1
    return l1, length // l1


def _roots(k: np.ndarray | int, order: int) -> np.ndarray | complex:
    """exp(2i*pi*k/order) for integer k, reduced mod order before scaling."""
    return np.exp(2j * np.pi / order * (k % order))


_BLOCK = 1 << 16  # points per block of the normal draw, _irfft's passes and the clamp build


def _fft_inplace(grid: np.ndarray) -> None:
    """In-place inverse complex DFT (numpy's ifft) of length L = L1*L2 on a
    C-contiguous (L1, L2) grid.

    Four-step (Bailey 1990): transform along one axis, twiddle, transform
    along the other.  numpy transforms a batch one lane at a time, so the only
    scratch is one lane.  It reads the input in natural order in
    grid.reshape(-1) and leaves the output in natural order along grid.T.
    With L1 = 1 (a prime L) the grid is one lane.
    """
    l1, l2 = grid.shape
    np.fft.ifft(grid, axis=0, out=grid)
    # grid[j1, k2] *= e^(2i*pi*j1*k2/L), `step` rows at a time: row a + r
    # takes table[r] * e^(2i*pi*a*k2/L); a single row needs none
    if l1 > 1:
        step = math.isqrt(l1)
        k2 = np.arange(l2)
        table = _roots(np.multiply.outer(np.arange(step), k2), l1 * l2)
        for a in range(0, l1, step):
            rows = grid[a : a + step]
            rows *= table[: len(rows)] * _roots(a * k2, l1 * l2)
    np.fft.ifft(grid, axis=1, out=grid)


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
        # monotone clamp: running max of max(0, raw), raw = mu*t + sigma*omega,
        # a block at a time; `top` (>= 0) is the clamp so far
        n = omega.shape[0]
        cum = np.empty(n)
        top, clamped = 0.0, 0
        for s in range(0, n, _BLOCK):
            c = cum[s : s + _BLOCK]
            raw = np.arange(s, s + len(c), dtype=float)
            raw *= params.dt
            raw *= params.mu
            raw += params.sigma * omega[s : s + len(c)]
            np.maximum(raw, top, out=c)
            np.maximum.accumulate(c, out=c)
            clamped += np.count_nonzero(c > raw)
            top = c[-1]
        # fraction of grid points where the monotone clamp altered raw b(t)
        self.clamp_fraction = clamped / n
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
    del incr  # freed before the clamp build
    return FbmTrace(params, omega)


def trace_from_samples(params: FbmParams, omega: np.ndarray) -> FbmTrace:
    """Wrap a float copy of externally supplied omega samples (e.g. built by
    hand); the trace freezes its own array, so the caller's stays writable."""
    return FbmTrace(params, np.array(omega, dtype=float))
