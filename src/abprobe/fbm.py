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
points at a time through block buffers, so its temporaries are O(_BLOCK)
whatever the grid's shape: about 1 MiB at the default _BLOCK.

A transform that keeps at least 2**20 points runs three of its passes on
two threads where the process may run on two CPUs or more (CPUS): the
normal draw as a pipeline (this thread draws the next block from the one
RNG stream while a worker scales and places the last), and the covariance
build and the FFT's row and column passes split between the threads, the
build with half the block buffers each.  The worker lives only inside the
transform, and no value depends on the split, so the output is the same
bit for bit on one thread or two.  The pre-pass, the twiddle and the
volume pass stay serial.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

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
    def doubled(base: int) -> int:  # smallest base * 2**k >= target
        return base << (max(-(-target // base), 1) - 1).bit_length()

    best = doubled(2)
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            best = min(best, doubled(2 * p5))
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
    imports, peak RSS rose 13.2 and 12.4 B at 3.3 M and 10 M samples), 4 B
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


def _normal_spectrum(rng: np.random.Generator, scale: np.ndarray, pool=None) -> np.ndarray:
    """Hermitian spectral synthesis: m = 2*(len(scale) - 1) real normals, times
    the scale, drawn in the order re[0..L] then im[1..L-1] into _irfft's
    packed spectrum of the half length L."""
    half = len(scale) - 1
    buf = np.empty(2 * half)
    re, im = _bin_views(buf)
    _scaled_normals(rng, scale[:half], re, 0, pool)
    nyquist = rng.standard_normal() * scale[half]
    _scaled_normals(rng, scale[:half], im, 1, pool)
    buf[1] = nyquist  # bin 0's imaginary slot
    return buf


def _bin_views(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real and the imaginary slots of _irfft's packed spectrum as
    (L2, L1) views whose row-major order is bin order."""
    re, im = buf.reshape(*_grid_shape(len(buf) // 2), 2).T
    return re, im


def _scaled_normals(
    rng: np.random.Generator, scale: np.ndarray, out: np.ndarray, start: int, pool
) -> None:
    """Bins start.. of out, an (rows, width) view in bin order, = scale times
    standard normals, drawn a block of rows at a time (the same stream as
    one draw) into one of two block buffers while the block before, in the
    other, is scaled and placed; the bins before start take zeros."""
    rows, width = out.shape
    step = max(1, _BLOCK // width)
    z = np.zeros((2, min(step, rows) * width))

    def draw(a: int) -> None:
        b = z[a // step % 2, : min(step, rows - a) * width]
        rng.standard_normal(out=b[start if a == 0 else 0 :])

    def place(a: int) -> None:
        b = z[a // step % 2, : min(step, rows - a) * width]
        b *= scale[a * width : a * width + len(b)]
        out[a : a + step] = b.reshape(-1, width)

    draw(0)
    for a in range(0, rows, step):
        parts = [partial(draw, a + step)] if a + step < rows else []
        _together(pool, parts + [partial(place, a)])


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


def _covariance_spectrum(half: int, hurst: float, pool=None) -> np.ndarray:
    """The fGn autocovariance gamma(0..half) as _irfft's packed spectrum."""
    # gamma(k) = 0.5*((q[k+2] - 2q[k+1]) + q[k]) with q[k] = |k-1|^2H, written
    # a block of rows at a time into the real slots, each thread its share of
    # the rows; a block's q covers its bins and the two after them, so the
    # last block's also gives gamma(half)
    buf = np.zeros(2 * half)
    re = _bin_views(buf)[0]
    width = re.shape[1]
    threads = _THREADS if pool else 1
    step = max(1, _BLOCK // threads // width)
    size = min(step, len(re)) * width
    ks = np.arange(size + 3.0)
    q, g = np.empty((threads, size + 3)), np.empty((threads, size))

    def rows(i: int, lo: int, hi: int) -> None:
        for a in range(lo, hi, step):
            s, e = a * width, min(a + step, hi) * width
            qb, gb = q[i, : e - s + 3], g[i, : e - s]
            np.add(ks[: e - s + 3], s - 1, out=qb)
            qb[0] = abs(qb[0])  # q[0] = |-1|, not a power of a negative base
            qb **= 2.0 * hurst
            np.multiply(qb[1:-2], 2.0, out=gb)
            np.subtract(qb[2:-1], gb, out=gb)
            gb += qb[:-3]
            gb *= 0.5
            re[a : a + len(gb) // width] = gb.reshape(-1, width)
        if hi == len(re):
            buf[1] = 0.5 * ((qb[-1] - 2.0 * qb[-2]) + qb[-3])

    _split(pool, rows, len(re))
    return buf


def _irfft(
    build: Callable[..., np.ndarray], args: tuple, lead: int, count: int
) -> np.ndarray:
    """lead zeros, then the first count <= m/2 + 1 points of numpy's
    irfft(X, n=m), in the buffer build(*args, pool) itself, shrunk to those
    lead + count floats.  pool, one worker thread for the build and the
    FFT's row and column passes, exists only if count is at least
    _THREADED blocks and _THREADS > 1; it is joined before the shrink.

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
    threaded = _THREADS > 1 and count >= _THREADED * _BLOCK
    # leaving the block joins the worker, before the shrink
    with ThreadPoolExecutor(_THREADS - 1) if threaded else nullcontext() as pool:
        buf = build(*args, pool)
        grid = buf.view(complex).reshape(_grid_shape(len(buf) // 2))
        _prepass(grid)
        _fft_inplace(grid, pool)
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

    Bin 0 pairs with the real bin L.  Bin k = r + L1*c, at (r, c), pairs
    with (0, L2-c) for r = 0 and with (L1-r, L2-1-c) for r > 0, so each
    pairing is a slice of the grid against that slice reversed: row 0 from
    column 1, the rows from 1 and the middle row of an even L1, each paired
    up to its midpoint.  A pairing goes a block of rows at a time over
    chunks of its columns.  The middle column of an odd L2 and the bin L/2
    of an even L pair with themselves.  The temporaries are block buffers
    of at most _BLOCK points and the L1/2 + 1 row roots."""
    l1, l2 = grid.shape
    order = 2 * l1 * l2
    size = min(_BLOCK, l1 * l2)
    g, w, t = np.empty((3, size), complex)
    x0, nyquist = grid[0, 0].real, grid[0, 0].imag
    grid[0, 0] = complex(0.5 * (x0 + nyquist), 0.5 * (x0 - nyquist))
    mid = l1 // 2
    # the root of (r, c) is e^(i*pi*r/L) * e^(i*pi*L1*c/L)
    rr = _roots(np.arange(mid + 1, dtype=complex), order)[:, None]
    # (its first row and column, the slice, the rows and columns it pairs)
    for r0, c0, part, rows, cols in (
        (0, 1, grid[:1, 1:], 1, l2 // 2),
        (1, 0, grid[1:], (l1 - 1) // 2, l2),
        (mid, 0, grid[mid : mid + 1], 1 - l1 % 2, (l2 + 1) // 2),
    ):
        if not rows * cols:
            continue
        lo, hi = part[:rows, :cols], part[::-1, ::-1][:rows, :cols]
        for c, e in _chunks(cols, size):
            cr = _roots(np.arange(l1 * (c0 + c), l1 * (c0 + e), l1, dtype=complex), order)
            step = size // (e - c)
            for a in range(0, rows, step):
                block = lo[a : a + step, c:e]
                roots = g[: block.size].reshape(block.shape)
                np.multiply(rr[r0 + a : r0 + a + len(block)], cr, out=roots)
                _pair(block, hi[a : a + step, c:e], roots, w, t)


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
    multiplying integers below 2**53."""
    np.multiply(2j * np.pi / order, k, out=k)
    return np.exp(k, out=k)


# points per block of the normal draw (each of its two buffers), the
# covariance build, _irfft's passes and the volume pass; the covariance
# build on T threads gives each thread buffers of _BLOCK/T points
_BLOCK = 1 << 14
# the CPUs this process may run on (its affinity, where the platform has
# one), read at import; it caps the threads of _irfft's passes here and the
# worker processes of an ensemble (abprobe.experiment)
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the threads of _irfft's passes; a transform keeping fewer than _THREADED
# blocks of points runs on one: on a 2-CPU host two threads lost a few per
# cent at 2**19 points and won about 20 per cent at 2**21
_THREADS = min(2, CPUS)
_THREADED = 64


def _split(pool, work: Callable[[int, int, int], None], n: int) -> None:
    """work(i, a, b) on each thread's share i, range(a, b), of range(n), at
    once (_together); a share's block buffers are the caller's i-th."""
    if pool is None:
        return work(0, 0, n)
    shares = _chunks(n, -(-n // _THREADS))
    _together(pool, [partial(work, i, a, b) for i, (a, b) in enumerate(shares)])


def _together(pool, parts: list) -> None:
    """Runs the callables parts, the first on this thread and the others on
    pool's worker at once (with no pool, all here in turn), and returns
    when all are done."""
    futures = [pool.submit(part) for part in parts[1:]] if pool else []
    try:
        for part in parts if pool is None else parts[:1]:
            part()
    finally:
        for future in futures:
            future.result()


def _fft_inplace(grid: np.ndarray, pool=None) -> None:
    """In-place inverse complex DFT (numpy's ifft) of length L = L1*L2 on a
    C-contiguous (L1, L2) grid.

    Four-step (Bailey 1990): transform along the rows, twiddle, transform
    along the columns.  numpy transforms a batch one lane at a time, so the
    only scratch is a lane per thread, beside the twiddle's block buffers.
    It reads the input in natural order along grid.T, input k at
    grid[k % L1, k // L1], and leaves the output in natural order in
    grid.reshape(-1).  With L1 = 1 (a prime L) the grid is one lane and
    takes no twiddle.  With a pool, each thread transforms its share of the
    rows, then of the columns; the twiddle runs on the calling thread.
    """
    l1, l2 = grid.shape

    def ifft(axis: int, i: int, a: int, b: int) -> None:
        lanes = grid[a:b] if axis else grid[:, a:b]
        np.fft.ifft(lanes, axis=axis, out=lanes)

    _split(pool, partial(ifft, 1), l1)
    # grid[k1, j2] *= e^(2i*pi*k1*j2/L) by chunks of columns, a lane of `step`
    # rows at a time: row a + r takes near[r] * far[a/step], the chunk's
    # roots of r*j2 for r < step and of a*j2 for a = 0, step, 2 step, ...
    if l1 > 1:
        order = l1 * l2
        step = math.isqrt(l1)
        lanes = range(0, l1, step)  # the first row of each lane
        width = min(l2, max(1, _BLOCK // (step + len(lanes))))
        prod = np.empty(step * width, complex)
        for c, e in _chunks(l2, width):
            j2 = np.arange(c, e, dtype=complex)
            near = _roots(np.multiply.outer(np.arange(step), j2), order)
            far = _roots(np.multiply.outer(lanes, j2), order)
            for a, lane in zip(lanes, far):
                rows = grid[a : a + step, c:e]
                p = prod[: rows.size].reshape(rows.shape)
                np.multiply(near[: len(rows)], lane, out=p)
                rows *= p
    _split(pool, partial(ifft, 0), l2)


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
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(f"dt={self.dt} is too small to count the samples of a "
                             f"{self.horizon}s horizon; raise dt")

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
    return FbmTrace(buf, *_volume(params, buf, max_rate))
