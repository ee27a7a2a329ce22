"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so the trace keeps the monotone
clamp b~(t) = max_{s<=t} max(0, b(s)) on its sample grid, and only that.
Volume and rate queries between grid points belong to the path
(abprobe.path.PathModel).

omega comes from exact Davies-Harte synthesis.  One length-m real inverse
transform serves both the embedding's eigenvalues and the synthesis: a
length-m/2 complex one plus an O(m) pre-pass that pairs bin k with bin
m/2-k, in place by a four-step FFT (Bailey 1990) over numpy's batched
transforms, whose only scratch is one lane of the transform grid.  The
synthesis draws its normals straight into that one buffer, its output is
put in order inside the buffer, which then shrinks in place to the trace's
samples, and omega's running sum and the clamp are built over those same
samples.  So every phase peaks at about 12 B per embedding point.  The
normal draw, the pre-pass, the output moves, the running sum and the clamp
build each run in blocks of _BLOCK points.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    straight into that buffer, so the synthesis peaks at about 12 B per
    embedding point (the buffer and the cached scale), and the increments
    are returned in the buffer itself, shrunk to their n floats.
    """
    return _fgn(n, hurst, rng, 0)


def _fgn(n: int, hurst: float, rng: np.random.Generator, lead: int) -> np.ndarray:
    """lead zeros, then fgn_davies_harte's n increments, in one array."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 1:
        raise ValueError(f"need at least one increment, got n={n}")
    if n == 1:
        x = np.zeros(lead + 1)
        rng.standard_normal(out=x[lead:])
        return x

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
    return _irfft(_normal_spectrum, (rng, scale), lead, n)


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _normal_spectrum(rng: np.random.Generator, scale: np.ndarray) -> np.ndarray:
    """Hermitian spectral synthesis: m = 2*(len(scale) - 1) real normals, times
    the scale, drawn in the order re[0..L] then im[1..L-1] into _irfft's
    packed spectrum of the half length L."""
    half = len(scale) - 1
    buf = np.empty(2 * half)
    _scaled_normals(rng, scale[:half], buf[0::2])
    buf[1] = rng.standard_normal() * scale[half]
    _scaled_normals(rng, scale[1:half], buf[3::2])
    return buf


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
        # the circulant's first row gamma(0..m/2), gamma(m/2-1..1) is real and
        # symmetric, so its eigenvalues are m * irfft(gamma)
        lam = _irfft(_covariance_spectrum, (m // 2, hurst), 0, m // 2 + 1)
        lam *= m
        if lam.min() >= -1e-8 * lam.max():
            return np.clip(lam, 0.0, None, out=lam)
    raise ValueError(
        f"the circulant embedding of the n={n}-increment traffic trace at "
        f"hurst={hurst} rounds to indefinite; lower hurst or shorten the trace "
        "(fewer sequences, a larger packet_size or dt, or a lower capacity)"
    )


def _covariance_spectrum(half: int, hurst: float) -> np.ndarray:
    """The fGn autocovariance gamma(0..half) as _irfft's packed spectrum."""
    # q[k] = k^2H once; gamma(k) = 0.5*((q[k+1] - 2q[k]) + q[|k-1|]), written
    # straight into the real slots (a separate gamma array, freed after q,
    # would stay in the malloc heap through the synthesis)
    q = np.arange(half + 2, dtype=float) ** (2.0 * hurst)
    buf = np.zeros(2 * half)
    gamma = buf[0::2]
    np.multiply(q[:half], 2.0, out=gamma)
    np.subtract(q[1 : half + 1], gamma, out=gamma)
    gamma[0] += q[1]
    gamma[1:] += q[: half - 1]
    gamma *= 0.5
    buf[1] = 0.5 * ((q[half + 1] - 2.0 * q[half]) + q[half - 1])
    return buf


def _irfft(
    build: Callable[..., np.ndarray], args: tuple, lead: int, count: int
) -> np.ndarray:
    """lead zeros, then the first count <= m/2 + 1 points of numpy's
    irfft(X, n=m), in the buffer build(*args) itself, shrunk to those
    lead + count floats.

    The buffer (float, length m, owning its data) packs the spectrum X[0..L],
    L = m/2: bins 0..L-1 as complex pairs, with the real bin L in the slot
    of bin 0's imaginary part, which irfft ignores.  It is built here, so
    that this call holds its only reference on any interpreter; the in-place
    shrink raises ValueError if build kept another.

    y = ifft(C), C[k] = W + g_k*(X[k] - W) with W = conj X[L-k] and
    g_k = 1/2 + h_k, h_k = i*e^(i*pi*k/L)/2, is y[j] = x[2j] + i*x[2j+1].
    """
    buf = build(*args)
    _prepass(buf.view(complex))
    l1, l2 = _grid_shape(len(buf) // 2)
    _fft_inplace(buf.view(complex).reshape(l1, l2))
    _natural_order(buf, l1, lead, count)
    buf[:lead] = 0.0
    buf.resize(lead + count)
    return buf


def _prepass(spec: np.ndarray) -> None:
    """C from the packed X, in place, pairing bin k with bin L-k: with
    E = g_k*(X[k] - conj X[L-k]), C[k] = conj X[L-k] + E and, as
    g_(L-k) = 1/2 + conj h_k, C[L-k] = conj(X[k] - E).  Bin 0 pairs with
    the real bin L, and for even L the bin L/2 pairs with itself."""
    half = len(spec)
    x0, nyquist = spec[0].real, spec[0].imag
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


def _natural_order(buf: np.ndarray, l1: int, lead: int, count: int) -> None:
    """Move x[0..count) from the transform's output, y in natural order along
    the columns of the (l1, L/l1) grid in buf, to buf[lead : lead + count].

    y[0..need) fills the first nc columns; the others are free.  A run of
    whole free rows at a time, y is copied in natural order into the free
    slots, row-major (their memory order); then each run is moved down to
    the front, in the same order, so no move overwrites a slot still to be
    read.  What the free slots cannot hold, at most l1 + 1 points, waits in
    a side block; so does an output of at most _BLOCK points, whole.  A
    one-lane grid (a prime L) is in order already and is shifted by lead, a
    block at a time from the end.
    """
    if l1 == 1:
        if lead:
            for e in range(count, 0, -_BLOCK):
                s = max(0, e - _BLOCK)
                buf[s + lead : e + lead] = buf[s:e]
        return
    grid = buf.view(complex).reshape(l1, -1)
    need = -(-count // 2)
    if need <= _BLOCK:
        buf[lead : lead + 2 * need] = _column_run(grid, 0, need).copy().view(float)
        return
    nc = -(-need // l1)
    free = grid[:, nc:]
    width = free.shape[1]
    room = min(need, width * l1)
    side = _column_run(grid, room, need).copy()
    # runs of whole free rows, about _BLOCK slots each: (first slot, first
    # row, whole rows, slots in a last partial row); room is 0 where width is
    step = width * max(1, _BLOCK // max(width, 1))
    runs = [(k, k // width, *divmod(min(step, room - k), width)) for k in range(0, room, step or 1)]
    for k, r, full, rest in runs:
        y = _column_run(grid, k, k + full * width + rest)
        free[r : r + full] = y[: full * width].reshape(full, width)
        if rest:
            free[r + full, :rest] = y[full * width :]
    rows = free.view(float)
    for k, r, full, rest in runs:
        out = buf[lead + 2 * k : lead + 2 * (k + full * width + rest)]
        out[: 2 * full * width].reshape(full, 2 * width)[...] = rows[r : r + full]
        if rest:
            out[2 * full * width :] = rows[r + full, : 2 * rest]
    buf[lead + 2 * room : lead + 2 * need] = side.view(float)


def _column_run(grid: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """y[k0:k1] in natural order from the columns of the transform grid; a
    copy, or a view where it lies in one column."""
    l1 = grid.shape[0]
    c0 = k0 // l1
    return grid[:, c0 : -(-k1 // l1)].T.reshape(-1)[k0 - c0 * l1 : k1 - c0 * l1]


def _grid_shape(length: int) -> tuple[int, int]:
    """(L1, L2) with L1*L2 = length and L1 the largest divisor <= sqrt(length)."""
    l1 = math.isqrt(length)
    while length % l1:
        l1 -= 1
    return l1, length // l1


def _roots(k: np.ndarray | int, order: int) -> np.ndarray | complex:
    """exp(2i*pi*k/order) for integer k, reduced mod order before scaling."""
    return np.exp(2j * np.pi / order * (k % order))


# points per block of the normal draw, _irfft's passes, the running sum and
# the clamp build
_BLOCK = 1 << 16


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
    """The clamped cumulative-volume grid of a sampled omega(t) path.

    The trace clamps a float copy of the omega it is given, so the caller's
    array is left as it was; omega itself is not kept.  Immutable after
    construction, so a trace may be shared freely across workers.
    """

    def __init__(self, params: FbmParams, omega: np.ndarray):
        self._clamp(params, np.array(omega, dtype=float))

    @classmethod
    def _over(cls, params: FbmParams, omega: np.ndarray) -> FbmTrace:
        """The trace clamped in place over omega, a float array it takes over."""
        trace = cls.__new__(cls)
        trace._clamp(params, omega)
        return trace

    def _clamp(self, params: FbmParams, omega: np.ndarray) -> None:
        if omega.ndim != 1 or omega.shape[0] != params.n_samples:
            raise ValueError(
                f"omega must have {params.n_samples} samples, got shape {omega.shape}"
            )
        if omega[0] != 0.0:
            raise ValueError("omega must start at zero")
        self.params = params
        # monotone clamp: running max of max(0, raw), raw = mu*t + sigma*omega,
        # a block at a time, over omega; `top` (>= 0) is the clamp so far
        n = omega.shape[0]
        top, clamped = 0.0, 0
        for s in range(0, n, _BLOCK):
            c = omega[s : s + _BLOCK]
            raw = np.arange(s, s + len(c), dtype=float)
            raw *= params.dt
            raw *= params.mu
            raw += params.sigma * c
            np.maximum(raw, top, out=c)
            np.maximum.accumulate(c, out=c)
            clamped += np.count_nonzero(c > raw)
            top = c[-1]
        # fraction of grid points where the monotone clamp altered raw b(t)
        self.clamp_fraction = clamped / n
        omega.flags.writeable = False
        self._cum = omega

    @property
    def n(self) -> int:
        return self._cum.shape[0]

    @property
    def cum_grid(self) -> np.ndarray:
        """Clamped cumulative bits at grid points (non-decreasing)."""
        return self._cum


def generate_trace(params: FbmParams) -> FbmTrace:
    """Synthesize omega on the dt grid; bit-for-bit reproducible per seed.

    omega is the increments' running sum, built in the synthesis's own
    array, a block at a time; each block's first element takes the sum so
    far, which leaves every addition the same as one cumsum's."""
    rng = np.random.default_rng(params.seed)
    omega = _fgn(params.n_samples - 1, params.hurst, rng, 1)
    step = params.dt**params.hurst
    total = 0.0
    for s in range(0, len(omega), _BLOCK):
        b = omega[s : s + _BLOCK]
        b *= step
        b[0] += total
        np.cumsum(b, out=b)
        total = b[-1]
    return FbmTrace._over(params, omega)


def trace_from_samples(params: FbmParams, omega: np.ndarray) -> FbmTrace:
    """Wrap externally supplied omega samples (e.g. built by hand); the trace
    clamps its own copy, so the caller's array is left as it was and stays
    writable."""
    return FbmTrace(params, omega)
