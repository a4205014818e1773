"""Discrete Legendre-Fenchel transform, biconjugation, and slope regions.

phi*(y) = max_x <x,y> - phi(x) is computed by brute force and by
``conjugate``, the one kernel for every max of affine functions indexed by
grid nodes in georay, the lambda-transform of a test curve included: that
is a conjugate in lambda.  Both evaluate each candidate with the *same*
float expression

    x1*y1 + (x2*y2 - f(x1, x2))        (1-D: x*y - f(x))

and break ties toward the lowest row-major primal index, so they are
bit-identical, argmax witnesses included.  A +inf value excludes its node,
so a max over a selection is a conjugate of data set to +inf off it; a dual
node with no node left gets -inf.

The brute force, ``_transform_brute``, is the exhaustive oracle the kernel
is checked against: it evaluates every (dual, primal) pair, a block of dual
columns per numpy call.  In 2-D it forms the y1-independent plane
x2*y2 - f of a block of y2 columns once and adds x1*y1 to it for every y1,
which is the expression above term for term; the first maximizer of each
row is the witness.

The row kernel ``_transform_1d`` conjugates rows V (r x n) that share the
primal nodes x, each cut to its finite run, after Lucet's linear-time
Legendre transform (Numer. Algorithms 16, 1997) and the lower-envelope scan
of Felzenszwalb-Huttenlocher (Theory of Computing 8, 2012):

1. H, a convex minorant of each run: the running max of its slopes, summed
   back up and shifted down to lie at or below the run.
2. For each dual node y, the window of five run nodes around the node J
   whose slopes of H bracket y is evaluated; its first max is the answer.
3. g = x*y - H is concave and bounds x*y - f, so if the window max exceeds
   g at the nearest node outside the window on each side by a margin, no
   node beyond the window reaches it.  The margin, (64 + run length) * eps
   * (max|x| max|y| + max|f| + max|H|) per row, covers the rounding of
   each evaluation and of the cumulative sum along the run.
4. Unsettled pairs (near ties, e.g. y equal to the slope of a linear run)
   go to the dense expression over the row, as do whole rows with -inf
   entries, holes in their finite nodes, or runs shorter than the window.

2-D is two passes: over axis 2 on the rows f(x1, .), giving t(x1, y2), then
over axis 1 on the rows -t(., y2), since x1*y1 - (-t) is x1*y1 + t
bit-for-bit.  Adding x1*y1 can round a lower-index inner candidate up to
the max; where the inner pass's gap does not rule that out, the winning
row is redone densely.  With window w = 5 the cost is O(n1 (n2 + m2 w)) +
O(m2 (n1 + m1 w)), plus a row per unsettled pair; temporaries are built in
blocks of ``grids._BLOCK`` elements.

Witnesses are computed only when a caller asks for them: without, the
window keeps only its running max v and the certificate bound < v (no
first max, second largest or gap), dense pairs store no argmax, and 2-D
skips the witness gather and the tie redo.  The values come from the same
float expressions, so they are the same bits.  The window and the dense
pairs both take the value at the first maximizer, as the brute force does:
a plain max may return the other sign of a tied zero.  Witnesses are
asked for by ``fast_vs_brute``, ``slope_regions(..., witness=True)`` (the
Monge-Ampere deposit of ``region_masses``) and ``energy_quadrature``; every
other caller conjugates values only.

``conjugate`` takes one function or a stack of them along a leading batch
axis; one function is the batch of one.  In 1-D the stacked rows go to the
row kernel together; in 2-D pass 1 runs on r*n1 rows and pass 2 on r*m2.
Callers that need one transform per lambda sample, path node or t conjugate
their items in groups given by ``grids._chunks`` (about ``_BLOCK`` output
values each), and reduce each group to regions, masses or frames before
the next; envelopes and dual rays share one such loop, ``masked_conjugates``.

Slope regions (the numerical Delta_phi) keep only dual nodes whose max is
attained at an interior primal node: boundary attainment encodes the box
truncation, not a genuine subgradient, and is discarded.  A region is a
boolean mask on the dual grid.  ``slope_regions`` takes one primal grid
and a stack of functions on it, (k, *grid.shape), and returns each one's
mask together with its full conjugate and, on request, the witnesses,
which the Monge-Ampere deposit reuses; one function is the stack
``f.values[None]``.  ``integral(u)`` integrates u over its finite set
under the trapezoid weights of that mask (``trapezoid_weights``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .grids import NEG_INF, Box, Grid, GridFunction, _at, _chunks, _lower_hull_1d

_EPS = np.finfo(float).eps


def _finite_slopes(f: GridFunction) -> list[np.ndarray]:
    """Per axis, the finite forward-difference slopes of f's values."""
    slopes = (np.diff(f.values, axis=ax) / h for ax, h in enumerate(f.grid.spacing))
    return [d[np.isfinite(d)] for d in slopes]


def default_dual_grid(f: GridFunction, nodes_per_axis=None) -> Grid:
    """Dual grid covering the slope range of f, padded by one dual spacing.

    The raw range per axis is [min, max] of forward differences of the
    finite values; padding one spacing on each side keeps Delta_f strictly
    inside the dual box.  A scalar ``nodes_per_axis`` applies to every axis.
    """
    if f.is_identically_neg_inf:
        raise DomainError("no slopes: function is identically -inf")
    if nodes_per_axis is None:
        nodes_per_axis = f.grid.nodes_per_axis
    counts = np.broadcast_to(np.atleast_1d(nodes_per_axis), (f.grid.dim,))
    nodes = tuple(max(int(m), 5) for m in counts)
    lo, hi = [], []
    for ax, d in enumerate(_finite_slopes(f)):
        if d.size == 0 or d.max() - d.min() < 1e-12:
            center = float(d[0]) if d.size else 0.0
            mn, mx = center - 0.5, center + 0.5
        else:
            mn, mx = float(d.min()), float(d.max())
        pad = (mx - mn) / (nodes[ax] - 3)
        lo.append(mn - pad)
        hi.append(mx + pad)
    return Grid(Box(tuple(lo), tuple(hi)), nodes)


def check_dual_contains_slopes(f: GridFunction, dual: Grid):
    """The slope range of f lies inside the box of the dual grid."""
    for ax, d in enumerate(_finite_slopes(f)):
        if d.size == 0:
            continue
        if d.min() < dual.box.lower[ax] - 1e-12 or d.max() > dual.box.upper[ax] + 1e-12:
            raise DomainError(
                f"dual box axis {ax} [{dual.box.lower[ax]}, {dual.box.upper[ax]}] "
                f"does not contain slope range [{d.min():g}, {d.max():g}]"
            )


def _transform_brute(axes, values, dual_axes):
    """Exhaustive conjugate over arbitrary axis data, a block of dual
    columns at a time (see the module docstring).

    Returns (vals, witness) where witness holds flat row-major primal
    indices (first maximizer).
    """
    vflat = values.ravel()
    if len(axes) == 1:
        x, y = axes[0], dual_axes[0]
        out = np.empty(len(y))
        wit = np.empty(len(y), dtype=np.intp)
        for q in _chunks(len(y), vflat.size):
            cand = x * y[q, None] - vflat
            w = np.argmax(cand, axis=1)
            out[q], wit[q] = cand[np.arange(len(w)), w], w
        return out, wit
    mesh = np.meshgrid(axes[0], axes[1], indexing="ij")
    x1f, x2f = mesh[0].ravel(), mesh[1].ravel()
    y1, y2 = dual_axes
    out = np.empty((len(y1), len(y2)))
    wit = np.empty((len(y1), len(y2)), dtype=np.intp)
    # blocks of about 2 * _BLOCK candidates: each x1*y1 product serves the
    # whole block, and at 65^2 seven columns a block beat three
    for q in _chunks(len(y2), vflat.size // 2):
        plane = x2f * y2[q, None] - vflat
        rows = np.arange(len(plane))
        for p, y in enumerate(y1):
            cand = x1f * y + plane
            w = np.argmax(cand, axis=1)
            out[p, q], wit[p, q] = cand[rows, w], w
    return out, wit


def _transform_1d(x, V, y, witness=False):
    """Row-batched certified conjugate max_j x[j]*y[q] - V[r, j] for
    increasing x and ascending y; +inf entries of V are excluded nodes.

    Returns (vals, wit, gap, dense), each (rows, len(y)): the max, its
    lowest-index witness, a lower bound on vals minus every candidate below
    the witness (-inf if unknown), and the pairs evaluated densely.  Without
    ``witness`` the witness bookkeeping is skipped and wit and gap are None;
    vals are the same bits either way.
    """
    if np.any(x[1:] <= x[:-1]) or np.any(y[1:] < y[:-1]):
        raise ValueError("primal nodes must increase and dual nodes must ascend")
    V = np.atleast_2d(V)
    shape, n = (len(V), len(y)), V.shape[1]
    vals, dense = np.full(shape, -np.inf), np.zeros(shape, dtype=bool)
    wit = gap = None
    if witness:
        wit, gap = np.zeros(shape, dtype=np.intp), np.full(shape, -np.inf)
    kept = V < np.inf
    count = kept.sum(axis=1)
    lo = np.argmax(kept, axis=1)
    hi = n - 1 - np.argmax(kept[:, ::-1], axis=1)
    # rows with -inf or NaN entries, with holes, or shorter than the window
    whole = (np.isnan(V) | (V == -np.inf)).any(axis=1)
    whole |= (count > 0) & ((hi - lo + 1 != count) | (count < 5))
    dense[whole] = True
    rows = np.flatnonzero((count > 0) & ~whole)
    # a block's temporaries are (rows x n) and (rows x len(y))
    for b in _chunks(rows.size, n + len(y)):
        k = rows[b]
        v, w, g, settled = _window(x, V[k], kept[k], y, lo[k, None], hi[k, None], witness)
        vals[k], dense[k] = v, ~settled
        if witness:
            wit[k], gap[k] = w, g
    rr, qq = np.nonzero(dense)
    if witness:
        gap[rr, qq] = -np.inf
    # the value at the first maximizer, as the brute force takes it: a plain
    # max may return the other sign of a zero
    for b in _chunks(rr.size, n):
        r, q = rr[b], qq[b]
        cand = x * y[q, None] - V[r]
        w = np.argmax(cand, axis=1)
        vals[r, q] = cand[np.arange(len(w)), w]
        if witness:
            wit[r, q] = w
    return vals, wit, gap, dense


def _window(x, W, run, y, lo, hi, witness):
    """Steps 1-3 on rows whose finite run W[lo..hi] (the mask ``run``) has
    at least five nodes; returns (vals, wit, gap, settled), wit and gap None
    without ``witness``."""
    k, n = W.shape
    row = np.arange(k)[:, None]
    Wz = np.where(run, W, 0.0)
    link = run[:, 1:] & run[:, :-1]
    dx = np.diff(x)
    S = np.maximum.accumulate(np.where(link, np.diff(Wz, axis=1) / dx, -np.inf), axis=1)
    H = np.zeros((k, n))
    np.cumsum(np.where(link, S * dx, 0.0), axis=1, out=H[:, 1:])
    H += np.take_along_axis(Wz, lo, 1)
    H -= np.maximum((H - W).max(axis=1, keepdims=True), 0.0)  # W is +inf off the run
    # H repeats its end values off the run, where Wz is 0
    scale = np.abs(x).max() * np.abs(y).max() + np.abs(Wz).max(axis=1, keepdims=True)
    scale += np.abs(H).max(axis=1, keepdims=True)
    # J = #{slopes < y}, a cumulative count of the slopes' positions among
    # the ascending y; slopes read -inf before the run and +inf after it
    pos = np.searchsorted(y, np.where(np.arange(n - 1) < hi, S, np.inf), side="right")
    J = np.bincount((pos + (len(y) + 1) * row).ravel(), minlength=k * (len(y) + 1))
    J = J.reshape(k, -1).cumsum(axis=1)[:, :-1]
    # the window s..s+4 of the run around J: its max and, with witnesses,
    # its first max (the first strict rise; the window holds no NaN) and
    # second largest.  Arrays of this size are updated in place, so a block
    # keeps few of them alive.
    s = np.maximum(np.minimum(J - 2, hi - 4, out=J), lo, out=J)
    at = row * n + s
    v = x[s] * y - W.take(at)
    if witness:
        w, second = s.copy(), np.full(s.shape, -np.inf)
    for d in range(1, 5):
        c = x[s + d] * y - W.take(at + d)
        rise = c > v  # the first max's value: np.maximum keeps c of tied zeros
        if witness:
            np.maximum(second, np.minimum(v, c), out=second)
            np.copyto(w, s + d, where=rise)
        np.copyto(v, c, where=rise)
    # certificate: g = x*y - H is concave and g >= x*y - W, so g at the
    # nodes s-1 and s+5 bounds every node beyond them; H padded with +inf
    # bounds nothing where the run has no such node
    Hp = np.full((k, n + 2), np.inf)
    Hp[:, 1:-1] = np.where(run, H, np.inf)
    xp = np.concatenate(([0.0], x, [0.0]))
    at += 2 * row  # node s-1 in the padding
    bound = xp[s] * y - Hp.take(at)
    np.maximum(bound, xp[s + 6] * y - Hp.take(at + 6), out=bound)
    bound += (64 + hi - lo + 1) * _EPS * scale
    if not witness:
        return v, None, None, bound < v
    gap = np.subtract(v, np.maximum(second, bound, out=second), out=second)
    return v, w, gap, bound < v


def conjugate(axes, values, dual_axes, witness=False):
    """(vals, wit): the max over primal nodes of <x,y> - values and its
    lowest-index witness, bit-identical to ``_transform_brute``; +inf values
    are excluded nodes.  Without ``witness`` no witness work is done and
    wit is None; vals are the same bits either way.

    ``values`` is one function on the primal nodes or a stack of them along
    a leading batch axis; the outputs then carry the same batch axis.
    """
    single = values.ndim == len(axes)
    V = values[None] if single else values
    r = len(V)
    if len(axes) == 1:
        out, wit, _, _ = _transform_1d(axes[0], V, dual_axes[0], witness)
    else:
        (x1, x2), (y1, y2) = axes, dual_axes
        n1, n2, m1, m2 = len(x1), len(x2), len(y1), len(y2)
        t, w2, gap, _ = _transform_1d(x2, V.reshape(r * n1, n2), y2, witness)
        # x1*y1 - (-t) is x1*y1 + t
        T = -t.reshape(r, n1, m2).transpose(0, 2, 1).reshape(r * m2, n1)
        out, w1, _, _ = _transform_1d(x1, T, y1, witness)
        out = out.reshape(r, m2, m1).transpose(0, 2, 1)
        if witness:
            w1 = w1.reshape(r, m2, m1).transpose(0, 2, 1)
            at = (np.arange(r)[:, None, None], w1, np.arange(m2))
            w2, gap = w2.reshape(r, n1, m2)[at], gap.reshape(r, n1, m2)[at]
            # sums that round alike lie within eps * |sum| of each other
            bb, pp, qq = np.nonzero(~(gap > 4 * _EPS * np.abs(out) + np.finfo(float).tiny))
            for s in _chunks(bb.size, n2):
                b, p, q = bb[s], pp[s], qq[s]
                i = w1[b, p, q]
                cand = x1[i, None] * y1[p, None] + (x2 * y2[q, None] - V[b, i])
                w2[b, p, q] = np.argmax(cand, axis=1)
            wit = w1 * n2 + w2
    if not witness:
        return (out[0] if single else out), None
    return (out[0], wit[0]) if single else (out, wit)


def _require_finite(grid: Grid, values: np.ndarray):
    """``values`` (one function on ``grid`` or a stack) are finite; the error
    names the first -inf node, its x and, in a stack, its row."""
    fin = np.isfinite(values)
    if not fin.all():
        row, flat = divmod(int(np.argmin(fin)), grid.num_nodes)
        of = f" (row {row} of the stack)" if values.ndim > grid.dim else ""
        raise DomainError(
            f"conjugate of a function that is -inf at {_at(grid, flat)}{of} is +inf everywhere"
        )


def legendre(f: GridFunction, dual: Grid) -> GridFunction:
    """phi*(y) = max over primal nodes of <x,y> - phi(x), on the dual grid:
    the ``conjugate`` kernel on one finite function, values only."""
    _require_finite(f.grid, f.values)
    vals, _ = conjugate(f.grid.axes(), f.values, dual.axes())
    return GridFunction(dual, vals.reshape(dual.shape))


def biconjugate(f: GridFunction, dual: Grid) -> GridFunction:
    """Legendre transform applied twice; lands back on the primal grid."""
    g = legendre(f, dual)
    return legendre(g, f.grid)


def masked_conjugates(dual: Grid, count: int, rows, grid: Grid) -> np.ndarray:
    """The (count, *grid.shape) conjugates onto ``grid`` of ``count`` items
    on ``dual``, each +inf off its mask by ``np.where`` (adding 0 would turn
    -0.0 into 0.0): ``rows(g)`` gives the values and masks of the slice
    ``g`` of items, broadcast to one row per item, and a ``_chunks`` group's
    rows are built and conjugated before the next's."""
    out = np.empty((count,) + grid.shape)
    for g in _chunks(count, grid.num_nodes):
        values, mask = rows(g)
        out[g] = conjugate(dual.axes(), np.where(mask, values, np.inf), grid.axes())[0]
    return out


def trapezoid_weights(mask: np.ndarray) -> np.ndarray:
    """Per node of a d-dimensional mask: the number of its 2^d adjacent grid
    cells whose corners all lie in the mask, over 2^d.

    Against nodal values, times the cell volume, this is the trapezoid rule
    on those cells: in 1-D each end of a run weighs 1/2, and empty and
    single-node masks weigh 0.
    """
    mask = np.asarray(mask, dtype=bool)
    d, corners = mask.ndim, tuple(range(mask.ndim, 2 * mask.ndim))
    cells = sliding_window_view(mask, (2,) * d).all(axis=corners)
    return sliding_window_view(np.pad(cells, 1), (2,) * d).sum(axis=corners) / 2**d


def integral(u: GridFunction) -> float:
    """int of u over its finite set, by the trapezoid rule of its mask."""
    sel = u.finite_mask
    return float((trapezoid_weights(sel)[sel] * u.values[sel]).sum()) * u.grid.cell_volume


def _convex_fill(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Close a node mask under the discrete convex hull of its true-set.

    On a uniform grid the node indices are an affine image of the
    coordinates, so the 2-D hull is taken exactly in index space: the
    monotone chain over each row's outermost true nodes, then an integer
    half-plane test per hull edge.  Collinear sets fill their index
    bounding box.
    """
    if mask.sum() <= 1:
        return mask
    out = np.zeros_like(mask)
    if grid.dim == 1:
        idx = np.nonzero(mask)[0]
        out[idx[0] : idx[-1] + 1] = True
        return out
    ii, jj = np.nonzero(mask)  # row-major: each row's run is ascending in j
    starts = np.diff(ii, prepend=-1, append=ii[-1] + 1) != 0  # a row starts at k
    ends = np.flatnonzero(starts[:-1] | starts[1:])  # each row's first and last node
    pi, pj = ii[ends].tolist(), jj[ends].tolist()
    # integer-valued floats: a cross product is at most the node count, so exact
    lower = _lower_hull_1d(pi, pj)
    upper = [len(pi) - 1 - k for k in _lower_hull_1d(pi[::-1], pj[::-1])]
    hull = [(pi[k], pj[k]) for k in lower[:-1] + upper[:-1]]
    i0, i1, j0, j1 = ii[0], ii[-1], jj.min(), jj.max()
    if len(hull) < 3:
        out[i0 : i1 + 1, j0 : j1 + 1] = True
        return out
    I = np.arange(i0, i1 + 1)[:, None]
    J = np.arange(j0, j1 + 1)[None, :]
    inside = np.ones((I.size, J.size), dtype=bool)
    for (pa, pb), (qa, qb) in zip(hull, hull[1:] + hull[:1]):
        inside &= (qa - pa) * (J - pb) - (qb - pb) * (I - pa) >= 0
    out[i0 : i1 + 1, j0 : j1 + 1] = inside
    return out


def slope_regions(grid: Grid, values: np.ndarray, dual: Grid, witness: bool = False):
    """Yield (mask, star, wit) for each function of the stack ``values``
    (k, *grid.shape), one function being ``f.values[None]``: the mask of its
    slope region, its conjugate on ``dual``, and with ``witness`` the
    conjugate's witnesses (None without).

    The region keeps the dual nodes where the conjugate restricted to
    interior primal nodes is within 1e-8 times the largest of 1, the finite
    value range and the largest |conjugate| of the full one, closed under
    the discrete convex hull.  The functions are conjugated in groups of
    ``_chunks`` items, each group's regions yielded before the next.
    """
    V = np.asarray(values, dtype=float).reshape((-1,) + grid.shape)
    flat = V.reshape(len(V), -1)
    top = flat.max(axis=1)
    if (top == NEG_INF).any():
        row = np.argmax(top == NEG_INF)
        raise DomainError(f"row {row} of the stack is identically -inf: it has no subgradients")
    spread = top - np.where(flat > NEG_INF, flat, np.inf).min(axis=1)
    axes = grid.axes()
    inner = [a[1:-1] for a in axes]
    sl = (slice(None),) + tuple(slice(1, -1) for _ in axes)
    for g in _chunks(len(V), dual.num_nodes):
        full, wit = conjugate(axes, V[g], dual.axes(), witness)
        interior, _ = conjugate(inner, V[g][sl], dual.axes())
        for i, (a, b, r) in enumerate(zip(full, interior, spread[g])):
            t = 1e-8 * max(1.0, float(r), float(np.abs(a).max()))
            yield _convex_fill(dual, b >= a - t), a, None if wit is None else wit[i]
