"""Independent verification routes used by the test suite.

Everything here deliberately avoids the library's analytic machinery: gradients
come from central differences, set membership from dense sampling of convex
combinations, subdifferentials from limits of gradients along random smooth
approach directions, and worst-case values from brute-force grids.  Expected
values asserted in the tests were frozen from these routes first.
"""

from __future__ import annotations

import itertools

import numpy as np

from robustcert.expr import Point, evaluate


def fd_gradient(e, z, u=None, wrt="decision", h=1e-6):
    """Central finite-difference gradient."""
    z = np.asarray(z, dtype=float)
    u = None if u is None else np.asarray(u, dtype=float)
    base = z if wrt == "decision" else u
    g = np.zeros(len(base))
    for i in range(len(base)):
        hi = base.copy()
        lo = base.copy()
        hi[i] += h
        lo[i] -= h
        if wrt == "decision":
            up_pt, lo_pt = Point.of(hi, u), Point.of(lo, u)
        else:
            up_pt, lo_pt = Point.of(z, hi), Point.of(z, lo)
        g[i] = (evaluate(e, up_pt) - evaluate(e, lo_pt)) / (2 * h)
    return g


def limit_gradients(e, z, u=None, wrt="decision", radii=(1e-5, 1e-6, 1e-7),
                    directions=48, seed=0, h=1e-9, agree_tol=2e-3):
    """Cluster of gradient limits approached radially from smooth nearby points.

    Samples gradients at z + r*dir for shrinking r along many directions, keeps
    directions whose gradients stabilize across radii, and deduplicates the
    stabilized limits.  The result under-approximates the limiting
    subdifferential's extreme structure but every returned vector must be in it.
    """
    rng = np.random.default_rng(seed)
    z = np.asarray(z, dtype=float)
    dim = len(z) if wrt == "decision" else len(u)
    limits = []
    for _ in range(directions):
        d = rng.normal(size=dim)
        d /= np.linalg.norm(d)
        grads = []
        for r in radii:
            if wrt == "decision":
                grads.append(fd_gradient(e, z + r * d, u, wrt, h=max(h, r * 1e-3)))
            else:
                grads.append(
                    fd_gradient(e, z, np.asarray(u) + r * d, wrt, h=max(h, r * 1e-3))
                )
        if all(
            np.max(np.abs(grads[k] - grads[-1])) <= agree_tol
            for k in range(len(grads))
        ):
            limits.append(grads[-1])
    unique = []
    for g in limits:
        if not any(np.max(np.abs(g - q)) <= 5e-3 for q in unique):
            unique.append(g)
    return unique


def brute_contains(vertex_lists, x, steps=21, tol=1e-8):
    """Is x in the union of convex hulls, by dense convex-combination search?

    Exhaustive over barycentric grids for small vertex counts; used only as a
    low-dimensional cross-check.
    """
    x = np.asarray(x, dtype=float)
    for verts in vertex_lists:
        V = np.asarray(verts, dtype=float)
        m = len(V)
        if m == 1:
            if np.linalg.norm(V[0] - x) <= tol:
                return True
            continue
        best = np.inf
        grid = np.linspace(0.0, 1.0, steps)
        for combo in itertools.product(grid, repeat=m - 1):
            s = sum(combo)
            if s > 1.0 + 1e-12:
                continue
            w = np.array(list(combo) + [1.0 - s])
            best = min(best, np.linalg.norm(w @ V - x))
            if best <= tol:
                return True
    return False


def hull_distance_lp(vertices, x):
    """Distance from x to conv(vertices) via least squares on the simplex.

    Uses scipy's nonnegative least squares on an augmented system that pins
    the weights to sum to one; exact for the small systems in these tests.
    """
    from scipy.optimize import nnls

    V = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    scale = 1e6  # weight for the sum-to-one row
    A = np.vstack([V.T, scale * np.ones(len(V))])
    b = np.concatenate([x, [scale]])
    w, _ = nnls(A, b)
    return np.linalg.norm(w @ V - x)


def grid_worst_case(e, z, lower, upper, n=4001):
    """max over a box of uncertainty values by dense per-axis grid."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(lower, upper)]
    best = -np.inf
    for u in itertools.product(*axes):
        best = max(best, evaluate(e, Point.of(z, np.asarray(u))))
    return best


def finite_worst_case(e, z, points):
    return max(evaluate(e, Point.of(z, np.asarray(u))) for u in points)


def per_point_sweep(e, z, U, grid):
    """U's grid and ``e(z, u)`` on it, as each consumer wrote the sweep out.

    The decision coordinates enter as 0-d columns against the uncertainty
    columns; with no uncertainty variables the decision columns alone are
    evaluated.  Returns ``(points, values)`` with one value per grid point.
    """
    from robustcert.expr import eval_broadcast

    z = np.asarray(z, dtype=float)
    pts = U.grid_points(grid)
    cols_z = [np.asarray(z[j]) for j in range(len(z))]
    cols_u = [pts[:, k] for k in range(U.dim)] if U.dim else None
    vals = np.broadcast_to(eval_broadcast(e, cols_z, cols_u), (len(pts),))
    return pts, vals


def per_point_worst_case(e, z, U, grid):
    """``worst_case_value`` over ``per_point_sweep``.

    The grid maximum, polished per axis on box sets by the library's own
    polish, so its floats are comparable bit for bit; with no uncertainty
    variables, the scalar evaluation.
    """
    from robustcert.constraints import _refine_box_max

    z = np.asarray(z, dtype=float)
    if U.dim == 0:
        return evaluate(e, Point.of(z, np.zeros(0)))
    pts, vals = per_point_sweep(e, z, U, grid)
    best_idx = int(np.argmax(vals))
    best = float(vals[best_idx])
    if U.kind == "box":
        best = max(best, _refine_box_max(e, z, pts[best_idx], U)[1])
    return best


def two_pass_refine_box_max(e, z, u0, U, passes=2):
    """The per-axis polish with every line search of every pass run.

    The library's ``_refine_box_max`` as it was before it skipped a line
    search whose 1-D objective had not changed, kept word for word: the
    same scipy calls on the same floats, so its (u, value) are comparable
    bit for bit.
    """
    from scipy.optimize import minimize_scalar

    from robustcert.constraints import REFINE_XATOL

    u = np.asarray(u0, dtype=float).copy()
    z = np.asarray(z, dtype=float)
    best = evaluate(e, Point.of(z, u))
    for _ in range(passes):
        for j in range(len(u)):
            lo, hi = U.lower[j], U.upper[j]
            if hi <= lo:
                continue

            def neg(t, j=j):
                trial = u.copy()
                trial[j] = t
                return -evaluate(e, Point.of(z, trial))

            res = minimize_scalar(
                neg, bounds=(lo, hi), method="bounded",
                options={"xatol": REFINE_XATOL},
            )
            if -res.fun > best:
                best = float(-res.fun)
                u[j] = float(res.x)
    return u, best


def min_norm_in_sum(vertex_sets, starts=8, seed=0):
    """min |v|_2 over v in the Minkowski sum of convex hulls, by SLSQP.

    Each element of vertex_sets is an (n_k, d) array; the minimized point is
    sum_k (lam_k @ V_k) with each lam_k on the probability simplex.  The
    objective is convex and the constraints linear, so SLSQP converges to the
    global minimum; multiple starts guard against early termination.
    """
    from scipy.optimize import minimize

    sets = [np.asarray(V, dtype=float) for V in vertex_sets]
    sizes = [len(V) for V in sets]
    d = sets[0].shape[1]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def point(xs):
        out = np.zeros(d)
        for k, V in enumerate(sets):
            out += xs[offsets[k]:offsets[k + 1]] @ V
        return out

    def objective(xs):
        p = point(xs)
        return float(p @ p)

    constraints = [
        {
            "type": "eq",
            "fun": (lambda xs, a=offsets[k], b=offsets[k + 1]:
                    float(np.sum(xs[a:b]) - 1.0)),
        }
        for k in range(len(sets))
    ]
    bounds = [(0.0, 1.0)] * int(offsets[-1])
    rng = np.random.default_rng(seed)
    best = np.inf
    for s in range(starts):
        x0 = np.concatenate(
            [
                np.full(n, 1.0 / n) if s == 0 else rng.dirichlet(np.ones(n))
                for n in sizes
            ]
        )
        res = minimize(
            objective, x0, method="SLSQP", bounds=bounds,
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-16},
        )
        if res.fun < best:
            best = float(res.fun)
    return float(np.sqrt(max(best, 0.0)))


def loop_simplex_indices(m, edge):
    """Integer simplex directions in scan order, by the plain nested loop.

    Scan order is ascending lexicographic on (i_2, ..., i_{m-1}, i_1); the
    last index is determined by the total.
    """
    if m == 1:
        return np.array([[edge]])
    rows = []
    for mid in itertools.product(*(range(edge + 1) for _ in range(m - 2))):
        s = sum(mid)
        if s > edge:
            continue
        for i1 in range(edge - s + 1):
            rows.append((i1, *mid, edge - s - i1))
    return np.array(rows, dtype=np.int64)


def listed_dyadic_lattice(lower, upper, n):
    """The first n points of ``convexity.dyadic_lattice``, each level's axes
    listed and multiplied out by ``itertools.product`` (memory grows with
    the width of the box)."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    points = []
    for level in itertools.count():
        step = 1.0 if level == 0 else 2.0 ** (-level)
        axes = [[None] if upper[j] <= lower[j] else
                list(range(int(np.ceil(lower[j] / step - 1e-12)),
                           int(np.floor(upper[j] / step + 1e-12)) + 1))
                for j in range(len(lower))]
        for combo in itertools.product(*axes):
            if level > 0 and all(k is None or k % 2 == 0 for k in combo):
                continue
            points.append([lower[j] if k is None else k * step
                           for j, k in enumerate(combo)])
            if len(points) == n:
                return np.array(points)


def loop_chunk_corners(m, edge):
    """Corners of the slab of each ``kkt.SCAN_CHUNK`` chunk of the plain
    lattice, (chunks, 2(m-1), m): t e_k + (1 - t) e_j for j != k, with t
    the first and the last row's first scan key y_k."""
    from robustcert import kkt

    Y = loop_simplex_indices(m, edge).astype(float) / edge
    if m == 1:
        return Y.reshape(1, 1, 1)
    key = 1 if m >= 3 else 0
    chunks = []
    for start in range(0, len(Y), kkt.SCAN_CHUNK):
        end = min(start + kkt.SCAN_CHUNK, len(Y)) - 1
        corners = []
        for t in (Y[start, key], Y[end, key]):
            for j in range(m):
                if j != key:
                    corner = np.zeros(m)
                    corner[key] = t
                    corner[j] = 1.0 - t
                    corners.append(corner)
        chunks.append(corners)
    return np.array(chunks)


def unpruned_kkt_search(P, z, y_grid, mode):
    """The certificate search by its definition, without any pruning.

    Every prefiltered lattice direction in scan order, then the Fritz John
    form, then every direction and piece selection of the coarse residual
    scan, keeping the first strictly smallest residual.  It shares the
    library's per-direction LPs, so its floats are comparable bit for bit.
    Returns the certificate or raises ``NotFoundAtResolution``.
    """
    from robustcert import kkt
    from robustcert.constraints import analyze_point

    m = P.n_objectives
    a = analyze_point(P, z)
    edge = y_grid - 1
    Y = loop_simplex_indices(m, edge).astype(float) / edge
    budget = kkt.MAX_LP
    for y in Y[kkt._prefilter(Y, kkt._filter_terms(a))]:
        found = kkt._try_direction(a, y, mode)
        if found is not None:
            return kkt._finalize(a, y, *found)
        budget -= 1
        if budget <= 0:
            break
    fj = kkt._fritz_john(a)
    if fj is not None:
        return kkt._finalize(a, np.zeros(m), fj, mode, fritz_john=True)
    coarse = loop_simplex_indices(m, kkt.COARSE_EDGE)
    best = (np.inf, None)
    for y in coarse.astype(float) / kkt.COARSE_EDGE:
        for piece_sets in kkt._direction_piece_sets(y, a):
            out = kkt._slack_lp(piece_sets, a.binding_hulls)
            if out is not None and out[0] < best[0]:
                best = (out[0], y.copy())
    raise kkt.NotFoundAtResolution(
        f"no certificate on the {y_grid}-point direction grid", *best
    )


def proper_weights_reference(D, R, eps):
    """Weights y with ``D y >= 0``, ``R y >= eps`` and ``(sum R) . y = 1``
    from one LP over every row of ``D``, or None when there are none.

    The interior-weight LP by its definition, with no relaxation first;
    its inputs are the library's, so its floats are comparable bit for bit.
    """
    from scipy.optimize import linprog

    m = R.shape[1]
    res = linprog(
        np.zeros(m),
        A_ub=np.vstack([-D, -R]),
        b_ub=np.concatenate([np.zeros(len(D)), -eps * np.ones(len(R))]),
        A_eq=R.sum(axis=0)[None, :], b_eq=np.array([1.0]),
        bounds=[(None, None)] * m, method="highs",
    )
    return res.x if res.status == 0 else None


def proper_lp_reference(P, z, grid=101, ugrid=1001):
    """``certify_proper`` with ``proper_weights_reference`` as its LP."""
    from robustcert import efficiency

    guard = efficiency._feasibility_guard(P, z, "proper", grid, ugrid)
    if guard is not None:
        return guard
    ctx = efficiency.grid_context(P, grid, ugrid)
    D = ctx.F - P.objective_values(z)[None, :]
    eps = efficiency.PROPER_EPS
    y = proper_weights_reference(D, P.cone.generating_rays(), eps)
    if y is None:
        return efficiency.EfficiencyReport(
            "proper", False, grid, len(ctx.Z),
            notes=("no interior weight vector supports the point "
                   f"at margin {eps}",),
        )
    return efficiency.EfficiencyReport(
        "proper", True, grid, len(ctx.Z), witness_y=y,
    )


def dominator_mask(P, D, strict):
    """The mask of every row ``efficiency._dominating_rows`` yields."""
    from robustcert.efficiency import _dominating_rows

    out = np.zeros(len(D), dtype=bool)
    out[list(_dominating_rows(P, D, strict))] = True
    return out


def dominators_reference(cone, D, strict):
    """Rows of ``D`` whose drop ``-d`` lies in the cone (its interior when
    ``strict``), by the tests the dual-ray margin test replaced.

    The orthant is tested componentwise.  A generator cone's interior is
    tested by its dual-ray margins, and its plain ordering by one
    ``ConeSpec.contains`` membership LP per row that is not a tie.
    """
    from robustcert.efficiency import DOMINANCE_TOL

    if cone.kind == "orthant":
        if strict:
            return np.all(D < -DOMINANCE_TOL, axis=1)
        return np.all(D <= DOMINANCE_TOL, axis=1) & np.any(
            D < -DOMINANCE_TOL, axis=1)
    if strict:
        return np.all((-D) @ cone.dual_rays().T > DOMINANCE_TOL, axis=1)
    out = np.zeros(len(D), dtype=bool)
    for r, d in enumerate(D):
        if np.max(np.abs(d)) > DOMINANCE_TOL:
            out[r] = cone.contains(-d)
    return out


def breadth_first_clusters(cand_pts, steps):
    """Clusters of the grid points ``cand_pts`` by the breadth-first search
    that ``grid_clusters``'s index labelling replaced.

    Two points are adjacent within 1.5 grid steps in every coordinate.
    Each cluster is a list of row indices of ``cand_pts`` in the order the
    search reached them, starting from its first row; clusters come in the
    order of their first row.  Quadratic in the number of points.
    """
    cand_pts = np.asarray(cand_pts, dtype=float)
    assigned = np.zeros(len(cand_pts), dtype=bool)
    clusters = []
    for i in range(len(cand_pts)):
        if assigned[i]:
            continue
        assigned[i] = True
        members, queue = [i], [i]
        while queue:
            a = queue.pop()
            dist = np.max(np.abs(cand_pts - cand_pts[a]) / steps, axis=1)
            near = np.flatnonzero(~assigned & (dist <= 1.5))
            assigned[near] = True
            members.extend(near.tolist())
            queue.extend(near.tolist())
        clusters.append(members)
    return clusters
