"""Monotone spatial stencils on the uniform periodic lattice.

A stencil is a map offset beta in Z^dim -> weight C(beta) >= 0 (units
1/time); the implied center weight is -sum C(beta), so applying it to w
yields sum_beta C(beta) (w(x + beta dx) - w(x)).  The builders return it
as weight rows `(offsets, weights)`: the nonzero offsets as an (n_o, dim)
intp array in lexicographic order, and their weights as an (n_o,) array,
or (n_o, *nodes) when a or b varies per node.  A row is dropped only when
its weights are all zero (a NaN row stays).  The scheme scatters these
rows into the weight array it steps with, and `consistency_residual`
applies the same rows.

Matrix convention used by the builders: the matrix argument is in the
sigma sigma^T normalization, i.e. the generated operator approximates

    (1/2) tr[a D^2 w] + b . Dw.

Callers approximating tr[a_half D^2] + b.D with a_half = (1/2) sigma
sigma^T (the problem module's diffusion) must pass sigma sigma^T =
2*a_half, which is what the scheme module does.

`kushner_stencil` implements the classical axis/corner coefficient table
(single-axis correction sum |a_ij|/(4 dx^2)); it is exact for diagonal a
and of positive type whenever a is diagonally dominant.  It is not
consistent for cross diffusion: the corner pairs add |a_ij|/2 to the
coefficients of w_ii and w_jj and the axis correction takes back only
|a_ij|/4, so L_h w tends to (1/2) tr[a D^2 w] + (1/4) sum_i sum_{j != i}
|a_ij| w_ii, an axis diffusion that does not vanish as dx -> 0 (a
consistency residual of 0.03 at every dx on the first control of
perfbench/inputs/rates_2d_seed0.json).  Cross-diffusion should go through
the direction decomposition route (`bz_decompose` + `bz_stencil`, the
scheme's 'bz' builder), which covers any a admitting a nonnegative
integer-direction decomposition and is second-order consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "BZDecomposition",
    "kushner_stencil",
    "check_diag_dominant",
    "bz_decompose",
    "bz_stencil",
    "consistency_residual",
]

TOL = 1e-12                # dominance slack, NNLS stationarity, largest accepted residual
MAX_NNLS_CYCLES = 20000    # safety cap on the active-set iterations of bz_decompose


def _unit(dim: int, i: int, sign: int = 1) -> tuple:
    off = [0] * dim
    off[i] = sign
    return tuple(off)


def _cell(offset, r: int) -> tuple:
    """Index of `offset` in a lattice of side 2r + 1 centred on offset 0."""
    return tuple(int(o) + r for o in offset)


def _rows(lattice: np.ndarray, r: int, dim: int):
    """Weight rows of a (2r+1,)*dim lattice of weights indexed by offset + r
    (node axes trailing): the offsets with a nonzero weight, in
    lexicographic order (the lattice's C order), and their weights."""
    cells = list(itertools.product(range(-r, r + 1), repeat=dim))
    flat = lattice.reshape((len(cells),) + lattice.shape[dim:])
    keep = [n for n in range(len(cells)) if np.any(flat[n] != 0.0)]
    return np.array([cells[n] for n in keep], dtype=np.intp).reshape(len(keep), dim), flat[keep]


def kushner_stencil(a, b, dx: float):
    """Axis/corner weight rows for (1/2) tr[a D^2] + b.D with upwind drift.

    a: (..., dim, dim) symmetric; b: (..., dim).  Leading axes (if any)
    become the node axes of the weights.  Weights:

        C(+-e_i)      = a_ii/(2 dx^2) - sum_{j != i} |a_ij|/(4 dx^2) + b_i^{+-}/dx
        C(+-(e_i+e_j)) = a_ij^+ / (2 dx^2)
        C(+-(e_i-e_j)) = a_ij^- / (2 dx^2)

    All weights are nonnegative iff they are; `check_diag_dominant(a)`
    is a sufficient condition on the diffusion part.  Consistent only for
    diagonal a (see the module docstring).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ConfigError(f"kushner_stencil: a must be (..., N, N), got {a.shape}")
    dim = a.shape[-1]
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.full(dim, float(b))
    if b.shape[-1] != dim:
        raise ConfigError(f"kushner_stencil: b must end in length {dim}, got {b.shape}")

    lattice = np.zeros((3,) * dim + np.broadcast_shapes(a.shape[:-2], b.shape[:-1]))
    inv2 = 1.0 / (2.0 * dx * dx)
    inv4 = 1.0 / (4.0 * dx * dx)
    for i in range(dim):
        offsum = sum(np.abs(a[..., i, j]) for j in range(dim) if j != i)
        base = a[..., i, i] * inv2 - (offsum * inv4 if dim > 1 else 0.0)
        bp = np.maximum(b[..., i], 0.0)
        bm = np.maximum(-b[..., i], 0.0)
        lattice[_cell(_unit(dim, i, +1), 1)] = base + bp / dx
        lattice[_cell(_unit(dim, i, -1), 1)] = base + bm / dx
    for i, j in itertools.combinations(range(dim), 2):
        ap = np.maximum(a[..., i, j], 0.0) * inv2
        am = np.maximum(-a[..., i, j], 0.0) * inv2
        for s in (+1, -1):
            off = [0] * dim
            off[i], off[j] = s, s
            lattice[_cell(off, 1)] = ap
            off[j] = -s
            lattice[_cell(off, 1)] = am
    return _rows(lattice, 1, dim)


def check_diag_dominant(a) -> bool:
    """Row dominance a_ii >= sum_{j != i} |a_ij| (within TOL * scale)."""
    a = np.asarray(a, dtype=float)
    scale = 1.0 + float(np.max(np.abs(a))) if a.size else 1.0
    for i in range(a.shape[-1]):
        offsum = sum(np.abs(a[..., i, j]) for j in range(a.shape[-1]) if j != i)
        if np.any(a[..., i, i] - offsum < -TOL * scale):
            return False
    return True


@dataclass
class BZDecomposition:
    """a ~ sum_beta w_beta beta beta^T with w_beta >= 0 and explicit residual."""

    dim: int
    directions: tuple
    weights: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0.0):
            raise ConfigError("decomposition weights must be nonnegative")
        if len(self.directions) != self.weights.shape[0]:
            raise ConfigError("decomposition directions/weights length mismatch")

    @property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(self.residual))) if self.residual.size else 0.0

    def reconstruction(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for beta, w in zip(self.directions, self.weights):
            bv = np.asarray(beta, dtype=float)
            out += w * np.outer(bv, bv)
        return out


def _validate_symmetric(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"decompose: need a square matrix, got shape {a.shape}")
    scale = 1.0 + float(np.max(np.abs(a)))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ConfigError("decompose: matrix is not symmetric")
    if np.min(np.linalg.eigvalsh(a)) < -1e-10 * scale:
        raise ConfigError("decompose: matrix is not positive semidefinite")
    return a


def _closed_form(a: np.ndarray):
    dim = a.shape[0]
    dirs, weights = [], []
    for i in range(dim):
        w = a[i, i] - sum(abs(a[i, j]) for j in range(dim) if j != i)
        w = max(w, 0.0)
        if w > 0.0:
            dirs.append(_unit(dim, i))
            weights.append(w)
    for i, j in itertools.combinations(range(dim), 2):
        if a[i, j] > 0.0:
            off = [0] * dim
            off[i], off[j] = 1, 1
            dirs.append(tuple(off))
            weights.append(a[i, j])
        elif a[i, j] < 0.0:
            off = [0] * dim
            off[i], off[j] = 1, -1
            dirs.append(tuple(off))
            weights.append(-a[i, j])
    return dirs, weights


def _candidate_directions(dim: int, order: int):
    """Integer vectors with components in [-order, order], one per sign class,
    sorted by (squared length, lexicographic order)."""
    dirs = []
    for comb in itertools.product(range(-order, order + 1), repeat=dim):
        if all(c == 0 for c in comb):
            continue
        first = next(c for c in comb if c != 0)
        if first < 0:
            continue
        dirs.append(comb)
    dirs.sort(key=lambda d: (sum(c * c for c in d), d))
    return dirs


def _nnls_active_set(A: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """min |A w - y|_2 over w >= 0 by the active-set method.

    Adds the variable with the most positive gradient, solves the
    restricted least squares exactly, and steps back dropping variables
    that would go negative; terminates when no inactive gradient exceeds
    `tol` (scaled).  Finite for exact arithmetic; max_iter is a safety cap.
    """
    n = A.shape[1]
    w = np.zeros(n)
    P = np.zeros(n, dtype=bool)
    gtol = tol * max(1.0, float(np.max(np.abs(A.T @ y))))
    for _ in range(max_iter):
        grad = A.T @ (y - A @ w)
        grad[P] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= gtol:
            break
        P[j] = True
        while True:
            idx = np.flatnonzero(P)
            z = np.linalg.lstsq(A[:, idx], y, rcond=None)[0]
            if np.min(z) > 0.0:
                w.fill(0.0)
                w[idx] = z
                break
            cur = w[idx]
            denom = cur - z
            steps = np.where((z <= 0.0) & (denom > 0.0), cur / np.where(denom > 0.0, denom, 1.0), np.inf)
            alpha = float(np.min(steps))
            cur = cur + alpha * (z - cur)
            cur[cur < 1e-14 * max(1.0, float(np.max(cur)))] = 0.0
            w.fill(0.0)
            w[idx] = cur
            P[idx] = cur > 0.0
            if not np.any(P):
                return w
    return w


def bz_decompose(a, max_order: int = 2) -> BZDecomposition:
    """Nonnegative direction decomposition of a symmetric PSD matrix.

    Diagonally dominant matrices get the exact closed form: weight
    a_ii - sum_{j != i} |a_ij| on e_i, a_ij^+ on e_i + e_j and a_ij^- on
    e_i - e_j (unordered pairs).  Otherwise weights are fitted by
    nonnegative least squares over all integer directions with components
    in [-max_order, max_order] (one representative per sign class), by
    the active-set method with stationarity tolerance TOL (MAX_NNLS_CYCLES
    caps the active-set iterations).  The residual matrix is returned
    explicitly either way; zero-weight directions are dropped.
    """
    a = _validate_symmetric(a)
    dim = a.shape[0]

    if check_diag_dominant(a):
        dirs, weights = _closed_form(a)
    else:
        cand = _candidate_directions(dim, max_order)
        A = np.stack([np.outer(np.asarray(d, float), np.asarray(d, float)).ravel()
                      for d in cand], axis=1)
        w = _nnls_active_set(A, a.ravel(), TOL, MAX_NNLS_CYCLES)
        keep = w > 0.0
        dirs = [d for d, k in zip(cand, keep) if k]
        weights = list(w[keep])

    dec = BZDecomposition(dim=dim, directions=tuple(dirs),
                          weights=np.asarray(weights, dtype=float),
                          residual=np.zeros((dim, dim)))
    dec.residual = a - dec.reconstruction()
    return dec


def bz_stencil(dec: BZDecomposition, b, dx: float):
    """Weight rows for (1/2) tr[a D^2] + b.D from a decomposition of a.

    With a = sum_beta w_beta beta beta^T, (1/2) tr[a D^2] is (1/2) sum_beta
    w_beta (beta.D)^2, and the second difference along beta gives the
    direction weights C(+-beta) = w_beta/(2 dx^2), whatever |beta|.
    Rejects decompositions whose residual exceeds TOL.  Drift is upwinded
    onto the unit directions; weights landing on the same offset
    accumulate.
    """
    if dec.residual_norm > TOL:
        raise ConfigError(
            f"bz_stencil: decomposition residual {dec.residual_norm:.3e} exceeds {TOL:.1e}"
        )
    dim = dec.dim
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.full(dim, float(b))
    r = max([1] + [abs(c) for beta in dec.directions for c in beta])
    lattice = np.zeros((2 * r + 1,) * dim + b.shape[:-1])
    for beta, w in zip(dec.directions, dec.weights):
        coef = w / (2.0 * dx * dx)
        lattice[_cell(beta, r)] += coef
        lattice[_cell((-c for c in beta), r)] += coef
    for i in range(dim):
        lattice[_cell(_unit(dim, i, +1), r)] += np.maximum(b[..., i], 0.0) / dx
        lattice[_cell(_unit(dim, i, -1), r)] += np.maximum(-b[..., i], 0.0) / dx
    return _rows(lattice, r, dim)


def consistency_residual(rows, a, b, phi, x, dx: float) -> float:
    """|L phi(x) - L_h phi(x)| with L = (1/2) tr[a D^2 phi] + b . D phi.

    `rows` are a builder's weight rows (offsets, weights) at spacing dx.
    phi supplies analytic derivatives (a SmoothFunction; evaluated at
    t=0).  The discrete side samples phi.value at the rows' offset points
    directly, so no grid is involved.  Scalar weights only (constant
    coefficients at the probed point).
    """
    offsets, weights = rows
    if weights.ndim != 1:
        raise ConfigError("consistency_residual needs scalar stencil weights")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dim = offsets.shape[1]
    if b.ndim == 0:
        b = np.full(dim, float(b))
    x = np.asarray(x, dtype=float).reshape(dim)
    Xp = x.reshape(1, dim)
    grad = np.asarray(phi.grad(0.0, Xp), dtype=float)[0]
    hess = np.asarray(phi.hess(0.0, Xp), dtype=float)[0]
    exact = 0.5 * float(np.trace(a @ hess)) + float(b @ grad)

    center = float(np.asarray(phi.value(0.0, Xp), dtype=float)[0])
    values = np.asarray(phi.value(0.0, x + offsets * dx), dtype=float)
    return abs(exact - float(weights @ (values - center)))
