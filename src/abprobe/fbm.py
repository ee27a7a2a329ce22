"""Self-similar cross-traffic as a fractional-Brownian-motion cumulative-arrival process.

The cumulative cross-traffic volume is b(t) = mu*t + sigma*omega(t), where
omega is standard fBm with Var(omega(t)) = |t|^(2H).  Raw b(t) can decrease
(omega is signed); traffic volumes cannot, so a trace is the monotone clamp
b~(t) = max_{s<=t} max(0, b(s)) on its sample grid, with its increments
capped at a ceiling the caller gives (the path's, a fraction of its
capacity).  omega's running sum, the clamp and the cap are one blocked pass
over the synthesis's own array, which the path (abprobe.path.PathModel)
keeps as its one traffic volume to answer every volume and rate query.

omega comes from exact Davies-Harte synthesis.  One length-m real inverse
transform serves both the embedding's eigenvalues and the synthesis: a
length-m/2 complex one plus an O(m) pre-pass that pairs bin k with bin
m/2-k, in place by a four-step FFT (Bailey 1990) over numpy's batched
transforms, whose only scratch is one lane of the transform grid.  The
spectrum is laid out in the order that transform reads, so it leaves its
output in natural order.  Each phase holds only its floor of whole-trace
arrays, per embedding point:

- the eigenvalues: 8 B, the covariance built in the transform's buffer,
  which then shrinks in place to the 4 B spectral scale;
- the synthesis: 12 B, the normals drawn straight into an 8 B buffer beside
  the cached 4 B scale; the pre-pass, the FFT and the lead shift work in it;
- the trace: the buffer shrinks in place to the samples (4 B), and one
  pass builds omega's running sum, the clamp and the cap over them.

Beside these, every pass (the normal draw, the covariance build, the
pre-pass, the twiddle and the volume pass) works a block of at most _BLOCK
points at a time through block buffers it makes once per call, so its
temporaries are O(_BLOCK) whatever the grid's shape: about 1 MiB at the
default _BLOCK.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FbmParams",
    "FbmTrace",
    "fgn_davies_harte",
    "generate_trace",
    "peak_bytes",
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

    The increments are returned in the transform's own buffer, shrunk to
    their n floats; peak_bytes states the memory a synthesis needs.
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
        if len(_SCALE_CACHE) >= _SCALE_CACHE_SIZE:
            _SCALE_CACHE.pop(next(iter(_SCALE_CACHE)))
        _SCALE_CACHE[key] = scale
    return _irfft(_normal_spectrum, (rng, scale), lead, n)


# spectral scales are a pure function of (n, hurst); reuse across seeds
_SCALE_CACHE: dict[tuple[int, float], np.ndarray] = {}
_SCALE_CACHE_SIZE = 4


def peak_bytes(traces: Iterable[tuple[int, float]]) -> int:
    """Peak bytes of synthesizing the (n_samples, hurst) traces one after
    another in one process: 15 B per point of the largest padded embedding
    (its 8 B buffer, its 4 B scale and the block buffers; past numpy's own
    imports, peak RSS rose 12.2 and 12.1 B at 3.3 M and 10 M samples), 4 B
    per point more while a tracer or profiler is active, for the copy of
    the kept points _irfft then makes, and 4 B per point of up to
    _SCALE_CACHE_SIZE - 1 cached others."""
    lens = sorted(_next_fast_len(2 * (n - 1)) for n, _ in set(traces))
    per_point = 19 if _traced() else 15
    return per_point * lens[-1] + 4 * sum(lens[-_SCALE_CACHE_SIZE:-1])


def _traced() -> bool:
    """Whether a tracer or profiler is active.  It holds one more reference
    to the buffer _irfft shrinks in place (the frame's locals, the bound
    method it reports), so the kept points are copied out instead."""
    return sys.gettrace() is not None or sys.getprofile() is not None


def _normal_spectrum(rng: np.random.Generator, scale: np.ndarray) -> np.ndarray:
    """Hermitian spectral synthesis: m = 2*(len(scale) - 1) real normals, times
    the scale, drawn in the order re[0..L] then im[1..L-1] into _irfft's
    packed spectrum of the half length L."""
    half = len(scale) - 1
    buf = np.empty(2 * half)
    re, im = _bin_views(buf)
    _scaled_normals(rng, scale[:half], re, 0)
    nyquist = rng.standard_normal() * scale[half]
    _scaled_normals(rng, scale[:half], im, 1)
    buf[1] = nyquist  # bin 0's imaginary slot
    return buf


def _bin_views(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and the imaginary slots of _irfft's packed spectrum as
    (L2, L1) views whose row-major order is bin order."""
    re, im = buf.reshape(*_grid_shape(len(buf) // 2), 2).T
    return re, im


def _scaled_normals(
    rng: np.random.Generator, scale: np.ndarray, out: np.ndarray, start: int
) -> None:
    """Bins start.. of out, an (rows, width) view in bin order, = scale times
    standard normals, drawn a block of rows at a time (the same stream as
    one draw); the bins before start take unset values."""
    width = out.shape[1]
    step = max(1, _BLOCK // width)
    z = np.empty((min(step, len(out)), width))
    for a in range(0, len(out), step):
        b = z[: min(step, len(out) - a)]
        flat = b.reshape(-1)[start:]
        rng.standard_normal(out=flat)
        flat *= scale[a * width + start : (a + len(b)) * width]
        out[a : a + len(b)] = b
        start = 0


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
    # gamma(k) = 0.5*((q[k+2] - 2q[k+1]) + q[k]) with q[k] = |k-1|^2H, written
    # a block of rows at a time into the real slots; a block's q covers its
    # bins and the two after them, so the last block's also gives gamma(half)
    buf = np.zeros(2 * half)
    re = _bin_views(buf)[0]
    width = re.shape[1]
    step = max(1, _BLOCK // width)
    size = min(step, len(re)) * width
    ks = np.arange(size + 3.0)
    q, g = np.empty(size + 3), np.empty(size)
    for a in range(0, len(re), step):
        s, e = a * width, min(a + step, len(re)) * width
        qb, gb = q[: e - s + 3], g[: e - s]
        np.add(ks[: e - s + 3], s - 1, out=qb)
        qb[0] = abs(qb[0])  # q[0] = |-1|, not a power of a negative base
        qb **= 2.0 * hurst
        np.multiply(qb[1:-2], 2.0, out=gb)
        np.subtract(qb[2:-1], gb, out=gb)
        gb += qb[:-3]
        gb *= 0.5
        re[a : a + step] = gb.reshape(-1, width)
    buf[1] = 0.5 * ((qb[-1] - 2.0 * qb[-2]) + qb[-3])
    return buf


def _irfft(
    build: Callable[..., np.ndarray], args: tuple, lead: int, count: int
) -> np.ndarray:
    """lead zeros, then the first count <= m/2 + 1 points of numpy's
    irfft(X, n=m), in the buffer build(*args) itself, shrunk to those
    lead + count floats.

    The buffer (float, length m, owning its data) packs the spectrum X[0..L],
    L = m/2, in the order the four-step transform reads it: bin k, a complex
    pair, at grid[k % L1, k // L1] of the (L1, L2) grid over the buffer,
    with the real bin L in the slot of bin 0's imaginary part, which irfft
    ignores.  The transform then leaves its output in natural order at the
    front of the buffer, so only the lead shift moves it.  The buffer is
    built here, so that this call holds its only reference on any
    interpreter; the in-place shrink raises ValueError if build kept another.
    A tracer or profiler holds one more, so while one is active the kept
    points are copied out.

    y = ifft(C), C[k] = W + g_k*(X[k] - W) with W = conj X[L-k] and
    g_k = 1/2 + h_k, h_k = i*e^(i*pi*k/L)/2, is y[j] = x[2j] + i*x[2j+1].
    """
    buf = build(*args)
    grid = buf.view(complex).reshape(_grid_shape(len(buf) // 2))
    _prepass(grid)
    _fft_inplace(grid)
    del grid  # the shrink refuses a buffer that a view still holds
    # numpy copies between overlapping 1-d views of one buffer in place
    buf[lead : lead + count] = buf[:count]
    buf[:lead] = 0.0
    if _traced():
        return buf[: lead + count].copy()
    buf.resize(lead + count)
    return buf


def _prepass(grid: np.ndarray) -> None:
    """C from the packed X, in place on the grid, pairing bin k with bin L-k:
    with E = g_k*(X[k] - conj X[L-k]), C[k] = conj X[L-k] + E and, as
    g_(L-k) = 1/2 + conj h_k, C[L-k] = conj(X[k] - E).

    Row 0 holds the bins c*L1: column c pairs with column L2-c, and bin 0
    with the real bin L.  Row r > 0 pairs (r, c) with (L1-r, L2-1-c): rows
    r <= L1/2 go a block at a time, over a chunk of the left half of the
    columns together with its mirror chunk (_mirrored), paired with the
    mirror block.  The middle row of an even L1, the middle column of an odd
    L2 and the bin L/2 of an even L pair with themselves.  The temporaries
    are block buffers of at most _BLOCK points and the L1/2 row roots, made
    once."""
    l1, l2 = grid.shape
    order = 2 * l1 * l2
    size = min(_BLOCK, l1 * l2)
    g, w, t = np.empty((3, size), complex)
    mid, half = l1 // 2, (l2 + 1) // 2
    kl = np.arange(0, l1 * min(size, l2), l1, dtype=complex)  # L1 * (0, 1, ...)
    row = grid[0]
    x0, nyquist = row[0].real, row[0].imag
    row[0] = complex(0.5 * (x0 + nyquist), 0.5 * (x0 - nyquist))
    for s in range(1, l2 // 2 + 1, _BLOCK):
        e = min(s + _BLOCK, l2 // 2 + 1)
        roots = _roots(np.add(kl[: e - s], l1 * s, out=g[: e - s]), order)
        _pair(row[s:e], row[l2 - e + 1 : l2 - s + 1][::-1], roots, w, t)
    if not mid:
        return
    # the root of (r, c) is e^(i*pi*r/L) * e^(i*pi*L1*c/L)
    width = min(half, max(1, size // 2))
    step = min(mid, max(1, size // (2 * width)))
    rr = _roots(np.arange(1, mid + 1, dtype=complex), order)[:, None]
    cr = np.empty(2 * width, complex)
    for c, e in _chunks(half, width):
        cols = cr[: 2 * (e - c)].reshape(2, e - c)
        np.add(kl[: e - c], l1 * c, out=cols[0])
        np.add(kl[: e - c], l1 * (l2 - e), out=cols[1])
        cols = _roots(cols, order)[:, None]
        for a in range(1, mid + 1, step):
            b = min(a + step, mid + 1)
            lo = _mirrored(grid, a, b, c, e)
            roots = g[: lo.size].reshape(lo.shape)
            np.multiply(rr[a - 1 : b - 1], cols, out=roots)
            hi = _mirrored(grid, l1 - b + 1, l1 - a + 1, c, e)[::-1, ::-1, ::-1]
            _pair(lo, hi, roots, w, t)


def _mirrored(grid: np.ndarray, a: int, b: int, c: int, e: int) -> np.ndarray:
    """Rows a..b-1 of the grid at columns c..e-1 and at their mirror columns
    L2-e..L2-1-c, as one (2, b - a, e - c) view; reversed along every axis,
    the same view of the mirror rows holds each bin's partner."""
    l2, item = grid.shape[1], grid.itemsize
    strides = ((l2 - e - c) * item, l2 * item, item)
    return np.ndarray((2, b - a, e - c), grid.dtype, grid, (a * l2 + c) * item, strides)


def _pair(lo: np.ndarray, hi: np.ndarray, g: np.ndarray, w: np.ndarray, t: np.ndarray) -> None:
    """lo = X[k] and hi = X[L-k] become C[k] and C[L-k], where g holds
    e^(i*pi*k/L); w and t are flat scratch of at least lo.size points.
    Where a bin is its own partner, both writes are C[k] and the one to lo,
    made last, stands."""
    w = w[: lo.size].reshape(lo.shape)
    t = t[: lo.size].reshape(lo.shape)
    np.conjugate(hi, out=w)
    g *= 0.5j
    g += 0.5
    np.subtract(lo, w, out=t)
    g *= t
    np.add(w, g, out=w)  # C[k]
    np.subtract(lo, g, out=g)
    np.conjugate(g, out=hi)  # C[L-k]
    lo[...] = w


def _grid_shape(length: int) -> tuple[int, int]:
    """(L1, L2) with L1*L2 = length and L1 the largest divisor <= sqrt(length)."""
    l1 = math.isqrt(length)
    while length % l1:
        l1 -= 1
    return l1, length // l1


def _chunks(length: int, limit: int) -> list[tuple[int, int]]:
    """(start, end) of the fewest chunks of at most limit points that cover
    range(length), of near-equal widths.  numpy multiplies complex operands
    one point wide in another loop, which rounds differently, so a chunk
    that is no sliver keeps each product what a whole-row pass makes."""
    count = -(-length // limit)
    return [(i * length // count, (i + 1) * length // count) for i in range(count)]


def _roots(k: np.ndarray, order: int) -> np.ndarray:
    """k, complex integers 0 <= k < order, becomes exp(2i*pi*k/order) in place.
    The integers stay exact: the callers make them by np.arange and by
    adding and multiplying integers below 2**53."""
    np.multiply(2j * np.pi / order, k, out=k)
    return np.exp(k, out=k)


# points per block of the normal draw, the covariance build, _irfft's
# passes and the volume pass
_BLOCK = 1 << 14


def _fft_inplace(grid: np.ndarray) -> None:
    """In-place inverse complex DFT (numpy's ifft) of length L = L1*L2 on a
    C-contiguous (L1, L2) grid.

    Four-step (Bailey 1990): transform along the rows, twiddle, transform
    along the columns.  numpy transforms a batch one lane at a time, so the
    only scratch is one lane.  It reads the input in natural order along
    grid.T, input k at grid[k % L1, k // L1], and leaves the output in
    natural order in grid.reshape(-1).  With L1 = 1 (a prime L) the grid
    is one lane.
    """
    l1, l2 = grid.shape
    np.fft.ifft(grid, axis=1, out=grid)
    # grid[k1, j2] *= e^(2i*pi*k1*j2/L) by chunks of columns, and in a chunk
    # `step` rows at a time: row a + r takes table[r] * table[step + a/step],
    # where table[i] = e^(2i*pi*f[i]*j2/L), f = 0..step-1 and then 0, step,
    # 2 step, ..., is built once per chunk; a single row needs none
    if l1 > 1:
        order = l1 * l2
        step = math.isqrt(l1)
        lanes = -(-l1 // step)
        width = min(l2, max(1, _BLOCK // (step + lanes)))
        j = np.arange(width, dtype=complex)
        f = np.concatenate((np.arange(step), np.arange(0, l1, step))).astype(complex)[:, None]
        table = np.empty((step + lanes) * width, complex)
        prod = np.empty(step * width, complex)
        for c, e in _chunks(l2, width):
            n = e - c
            tab = table[: (step + lanes) * n].reshape(step + lanes, n)
            j2 = np.add(j[:n], c, out=prod[:n])
            _roots(np.multiply(f, j2, out=tab), order)
            for lane, a in enumerate(range(0, l1, step), step):
                rows = grid[a : a + step, c : c + n]
                p = prod[: rows.size].reshape(rows.shape)
                np.multiply(tab[: len(rows)], tab[lane], out=p)
                rows *= p
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
        for name in ("sigma", "mu", "dt", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


@dataclass(frozen=True, eq=False)
class FbmTrace:
    """The effective cross-traffic volume on the dt grid, in the synthesis's
    own array (volume): the monotone clamp b~(t) = max_{s<=t} max(0, b(s)),
    its grid increments capped at the ceiling generate_trace was given.
    clamp_fraction is the fraction of grid points where the clamp altered
    b(t), cap_fraction the fraction of increments the cap cut and max_rate
    the highest rate the volume reaches on the grid (at most the ceiling).
    The path that asks for a trace (abprobe.path.PathModel) keeps that
    array as its one whole-trace copy of the traffic volume."""

    params: FbmParams
    volume: np.ndarray
    clamp_fraction: float
    cap_fraction: float
    max_rate: float

    @property
    def n(self) -> int:
        return len(self.volume)


def _volume(params: FbmParams, buf: np.ndarray, max_rate: float) -> tuple[float, float, float]:
    """buf, a lead zero and then the fGn increments, becomes the effective
    volume in place, a block at a time through block buffers made once:
    omega (the increments times dt^H, summed), the monotone clamp of
    raw = mu*t + sigma*omega, and that clamp's increments capped at
    max_rate*dt and summed back up.  Returns the fraction of grid points
    where the clamp altered raw, the fraction of increments the cap cut and
    the highest capped rate.

    A block carries in omega's sum so far (`total`), the clamp so far
    (`top`, >= 0, also the level its first increment is taken from) and the
    volume so far (`volume`): each block's first element takes a sum so
    far, which leaves every addition the same as one cumsum's."""
    n = len(buf)
    step, cap = params.dt**params.hurst, max_rate * params.dt
    size = min(n, _BLOCK)
    ks, raw, hit = np.arange(float(size)), np.empty(size), np.empty(size, bool)
    total = top = volume = steepest = 0.0
    clamped = capped = 0
    for s in range(0, n, _BLOCK):
        c = buf[s : s + _BLOCK]
        r, h = raw[: len(c)], hit[: len(c)]
        c *= step
        c[0] += total
        np.cumsum(c, out=c)
        total = c[-1]
        np.add(ks[: len(c)], s, out=r)
        r *= params.dt
        r *= params.mu
        c *= params.sigma
        r += c
        np.maximum(r, top, out=c)
        np.maximum.accumulate(c, out=c)
        clamped += np.count_nonzero(np.greater(c, r, out=h))
        r[0] = top  # r now holds each point's previous clamped level
        r[1:] = c[:-1]
        top = c[-1]
        c -= r
        capped += np.count_nonzero(np.greater(c, cap, out=h))
        np.minimum(c, cap, out=c)
        steepest = max(steepest, c.max())
        c[0] += volume
        np.cumsum(c, out=c)
        volume = c[-1]
    return float(clamped / n), float(capped / (n - 1)), float(steepest / params.dt)


def generate_trace(params: FbmParams, max_rate: float) -> FbmTrace:
    """Synthesize the effective volume on the dt grid, its increments capped
    at max_rate (bits/s); bit-for-bit reproducible per seed.

    omega's running sum, the clamp and the cap are one blocked pass
    (_volume) over the synthesis's own array, so neither omega nor the
    clamp is kept."""
    if not max_rate > 0.0:
        raise ValueError(f"max_rate must be > 0, got {max_rate}")
    rng = np.random.default_rng(params.seed)
    buf = _fgn(params.n_samples - 1, params.hurst, rng, 1)
    return FbmTrace(params, buf, *_volume(params, buf, max_rate))
