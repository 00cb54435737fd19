"""Dense interior-point kernels over complex data.

* ``solve_sdp`` -- minimize sum_k Tr(C_k X_k) over Hermitian PSD blocks X_k
  subject to linear trace constraints (<=, ==, >=), solved natively in complex
  Hermitian arithmetic with a symmetrized-HKM predictor-corrector method.  No
  block calls it: it solves the lifted relaxation that is the test oracle of
  the closed-form transmit step (``beamforming.solve_tx_sdr``).
* ``solve_qcqp`` -- minimize x^H A x - 2 Re{b^H x} + c over complex x subject
  to affine inequalities Re{d_i^H x} + e_i <= 0, with A Hermitian PSD, through
  the 2x2 real embedding and a Mehrotra predictor-corrector method.  No block
  calls it: it is the test reference for the closed-form ADMM phase step.

Problem sizes here are tiny (tens of variables), so everything is dense and
deterministic: no randomness, no sparsity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max-iter"


class ConicError(ValueError):
    """Malformed problem data."""


# ---------------------------------------------------------------------------
# QCQP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QcqpProblem:
    """min x^H a x - 2 Re{b^H x} + c  s.t.  Re{d[i]^H x} + e[i] <= 0."""

    a: np.ndarray
    b: np.ndarray
    c: float = 0.0
    d: np.ndarray | None = None   # (m, n) rows
    e: np.ndarray | None = None   # (m,)

    def dims(self) -> tuple[int, int]:
        n = self.a.shape[0]
        m = 0 if self.d is None else np.atleast_2d(self.d).shape[0]
        return n, m


@dataclass(frozen=True)
class QcqpResult:
    x: np.ndarray
    duals: np.ndarray
    status: str
    objective: float
    iterations: int
    kkt: dict
    certificate: np.ndarray | None = None


def _check_hermitian_psd(a: np.ndarray, tol: float = 1e-10) -> None:
    if a.shape[0] != a.shape[1]:
        raise ConicError("matrix must be square")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-9 * scale:
        raise ConicError("matrix must be Hermitian")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    if w.min(initial=0.0) < -tol * scale:
        raise ConicError(f"matrix not PSD (min eig {w.min():.3e})")


def _embed(a: np.ndarray) -> np.ndarray:
    """Hermitian A -> symmetric [[Re A, -Im A], [Im A, Re A]]."""
    ar, ai = a.real, a.imag
    return np.block([[ar, -ai], [ai, ar]])


def qcqp_kkt_residuals(prob: QcqpProblem, x: np.ndarray, duals: np.ndarray) -> dict:
    """Stationarity / primal / dual / complementarity residuals in complex form."""
    n, m = prob.dims()
    grad = 2.0 * (prob.a @ x - prob.b)
    if m:
        d = np.atleast_2d(prob.d)
        grad = grad + duals @ d
        slack = -(d.conj() @ x).real - prob.e       # s_i = -(Re{d^H x} + e_i) >= 0
        primal = float(np.maximum(-slack, 0.0).max(initial=0.0))
        dual = float(np.maximum(-duals, 0.0).max(initial=0.0))
        comp = float(np.abs(duals * slack).max(initial=0.0))
    else:
        primal = dual = comp = 0.0
    return {
        "stationarity": float(np.abs(grad).max(initial=0.0)),
        "primal": primal,
        "dual": dual,
        "complementarity": comp,
    }


def solve_qcqp(prob: QcqpProblem, tol: float = 1e-10, max_iter: int = 100) -> QcqpResult:
    """Interior-point solve of the embedded real QP.

    Returns status ``optimal`` with KKT residuals, ``infeasible`` with a
    verified Farkas ray on the constraints, or ``max-iter`` with the best
    iterate found.
    """
    a = np.asarray(prob.a, complex)
    b = np.asarray(prob.b, complex).ravel()
    n = a.shape[0]
    if b.shape != (n,):
        raise ConicError(f"b must have shape ({n},)")
    _check_hermitian_psd(a)
    n2 = 2 * n

    p_mat = 2.0 * _embed(a)
    r_vec = -2.0 * np.concatenate([b.real, b.imag])

    if prob.d is None or np.atleast_2d(prob.d).shape[0] == 0:
        x = _solve_psd(p_mat, -r_vec)
        xc = x[:n] + 1j * x[n:]
        obj = float((xc.conj() @ a @ xc).real - 2.0 * (b.conj() @ xc).real + prob.c)
        return QcqpResult(xc, np.zeros(0), OPTIMAL, obj, 0,
                          qcqp_kkt_residuals(prob, xc, np.zeros(0)))

    d = np.atleast_2d(np.asarray(prob.d, complex))
    e = np.atleast_1d(np.asarray(prob.e, float))
    m = d.shape[0]
    if d.shape[1] != n or e.shape != (m,):
        raise ConicError("constraint dimensions inconsistent")

    g_mat = np.concatenate([d.real, d.imag], axis=1)   # Re{d^H x} = g z
    h_vec = -e
    row_scale = np.maximum(1.0, np.linalg.norm(g_mat, axis=1))
    g_s = g_mat / row_scale[:, None]
    h_s = h_vec / row_scale
    obj_scale = max(1.0, float(np.abs(p_mat).max()), float(np.abs(r_vec).max()))
    p_s = p_mat / obj_scale
    r_s = r_vec / obj_scale

    z, lam, status, iters = _qp_mehrotra(p_s, r_s, g_s, h_s, tol, max_iter)
    duals = lam * obj_scale / row_scale
    xc = z[:n] + 1j * z[n:]
    obj = float((xc.conj() @ a @ xc).real - 2.0 * (b.conj() @ xc).real + prob.c)
    kkt = qcqp_kkt_residuals(prob, xc, duals)

    cert = None
    if status == INFEASIBLE:
        cert = duals / max(np.abs(duals).max(), 1e-300)
    return QcqpResult(xc, duals, status, obj, iters, kkt, cert)


def _solve_psd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with one iterative-refinement pass (the interior-point
    systems get badly conditioned near convergence)."""
    reg = 1e-14 * np.eye(mat.shape[0]) * max(1.0, np.abs(mat).max())
    try:
        cho = np.linalg.cholesky(mat + reg)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(mat, rhs, rcond=None)[0]

    def solve(v):
        return np.linalg.solve(cho.T, np.linalg.solve(cho, v))

    x = solve(rhs)
    x += solve(rhs - mat @ x)
    return x


def _qp_mehrotra(p, r, g, h, tol, max_iter):
    """Mehrotra predictor-corrector on min 0.5 z'Pz + r'z  s.t.  g z <= h.

    Returns the best iterate seen (residual-wise); conditioning near the
    solution makes late iterates oscillate at the floating-point floor."""
    m, n = g.shape
    z = _solve_psd(p, -r)
    s = np.maximum(h - g @ z, 1.0)
    lam = np.ones(m)
    status = MAX_ITER
    scale_d = 1.0 + float(np.abs(r).max(initial=0.0))
    scale_p = 1.0 + float(np.abs(h).max(initial=0.0))
    best = (np.inf, z, lam)
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        r_d = p @ z + r + g.T @ lam
        r_p = g @ z + s - h
        mu = float(s @ lam) / m
        score = max(float(np.abs(r_d).max(initial=0.0)) / scale_d,
                    float(np.abs(r_p).max(initial=0.0)) / scale_p, mu)
        if score < best[0]:
            best = (score, z.copy(), lam.copy())
            stall = 0
        else:
            stall += 1
        if score <= tol * 10.0:
            status = OPTIMAL
            break
        if stall >= 10:
            break

        # Farkas check: g' lam ~ 0, h' lam < 0 certifies infeasibility
        lam_norm = float(np.abs(lam).max())
        if lam_norm > 1e10:
            ray = lam / lam_norm
            if (np.abs(g.T @ ray).max() <= 1e-8 and h @ ray < -1e-10):
                return z, lam, INFEASIBLE, it

        w = lam / np.maximum(s, 1e-300)
        kkt_mat = p + g.T @ (w[:, None] * g)

        def newton(rc):
            rhs = -r_d - g.T @ ((rc - lam * r_p) / np.maximum(s, 1e-300))
            dz = _solve_psd(kkt_mat, rhs)
            ds = -r_p - g @ dz
            dlam = (rc - lam * ds) / np.maximum(s, 1e-300)
            return dz, ds, dlam

        # predictor; a single step length keeps the coupled dual residual
        # contracting (P z and G^T lam appear in the same equation)
        dz_a, ds_a, dlam_a = newton(-s * lam)
        alpha_a = min(_step_len(s, ds_a), _step_len(lam, dlam_a))
        mu_aff = float((s + alpha_a * ds_a) @ (lam + alpha_a * dlam_a)) / m
        sigma = min(0.999, max((mu_aff / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        # corrector
        dz, ds, dlam = newton(sigma * mu - s * lam - ds_a * dlam_a)
        alpha = min(1.0, 0.99 * _step_len(s, ds), 0.99 * _step_len(lam, dlam))
        z = z + alpha * dz
        s = np.maximum(s + alpha * ds, 1e-300)
        lam = np.maximum(lam + alpha * dlam, 1e-300)
    score, z, lam = best
    polished = _active_set_polish(p, r, g, h, z, lam, scale_d, scale_p)
    if polished is not None and polished[2] < score:
        z, lam, score = polished
    if score <= 1e-8:
        status = OPTIMAL
    return z, lam, status, it


def _qp_score(p, r, g, h, z, lam, scale_d, scale_p):
    r_d = p @ z + r + g.T @ lam
    slack = h - g @ z
    return max(
        float(np.abs(r_d).max(initial=0.0)) / scale_d,
        float(np.maximum(-slack, 0.0).max(initial=0.0)) / scale_p,
        float(np.maximum(-lam, 0.0).max(initial=0.0)),
        float(np.abs(lam * slack).max(initial=0.0)),
    )


def _active_set_polish(p, r, g, h, z, lam, scale_d, scale_p):
    """Crossover: exact KKT solve on candidate active sets inferred from the
    interior-point iterate.  Returns (z, lam, score) for the best verified
    candidate, or None."""
    m, n = g.shape
    slack = np.maximum(h - g @ z, 0.0)
    ratio = lam / (lam + slack + 1e-300)
    best = None
    tried = set()
    for tau in (0.5, 0.9, 0.99, 0.1):
        active = tuple(np.nonzero(ratio > tau)[0])
        if active in tried:
            continue
        tried.add(active)
        idx = list(active)
        ga = g[idx]
        kkt = np.zeros((n + len(idx), n + len(idx)))
        kkt[:n, :n] = p
        kkt[:n, n:] = ga.T
        kkt[n:, :n] = ga
        rhs = np.concatenate([-r, h[idx]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        z_c = sol[:n]
        lam_c = np.zeros(m)
        lam_c[idx] = sol[n:]
        if np.any(lam_c < -1e-9):
            continue
        lam_c = np.maximum(lam_c, 0.0)
        score = _qp_score(p, r, g, h, z_c, lam_c, scale_d, scale_p)
        if best is None or score < best[2]:
            best = (z_c, lam_c, score)
    return best


def _step_len(v, dv):
    neg = dv < 0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


# ---------------------------------------------------------------------------
# SDP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpConstraint:
    """sum over (k, A) terms of Tr(A X_k) {sense} rhs, with Hermitian A."""

    terms: tuple
    sense: str
    rhs: float


@dataclass(frozen=True)
class SdpProblem:
    """min sum_k Tr(costs[k] X_k)  s.t. constraints, X_k Hermitian PSD."""

    dims: tuple
    costs: tuple
    constraints: tuple

    @staticmethod
    def build(dims, costs, constraints) -> "SdpProblem":
        dims = tuple(int(d) for d in dims)
        costs = tuple(np.asarray(c, complex) for c in costs)
        if len(costs) != len(dims):
            raise ConicError("one cost matrix per block required")
        for d, c in zip(dims, costs):
            if c.shape != (d, d):
                raise ConicError("cost shape mismatch")
        cons = []
        for con in constraints:
            if con.sense not in ("<=", "==", ">="):
                raise ConicError(f"bad sense {con.sense!r}")
            terms = tuple((int(k), np.asarray(mat, complex)) for k, mat in con.terms)
            for k, mat in terms:
                if not 0 <= k < len(dims) or mat.shape != (dims[k], dims[k]):
                    raise ConicError("constraint term shape mismatch")
            cons.append(SdpConstraint(terms, con.sense, float(con.rhs)))
        return SdpProblem(dims, costs, tuple(cons))


def fix_diag_entry(k: int, dim: int, index: int, value: float) -> SdpConstraint:
    """Equality constraint pinning a diagonal entry of block k."""
    mat = np.zeros((dim, dim), complex)
    mat[index, index] = 1.0
    return SdpConstraint(((k, mat),), "==", value)


@dataclass(frozen=True)
class SdpResult:
    blocks: list
    y: np.ndarray
    status: str
    objective: float
    dual_objective: float
    gap: float
    iterations: int
    residuals: dict


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def _pd_inv(z: np.ndarray) -> np.ndarray:
    """Inverse of a (numerically) PD Hermitian matrix with an eigenvalue floor."""
    w, v = np.linalg.eigh(_herm(z))
    floor = max(float(w.max(initial=0.0)), 1e-300) * 1e-16
    w = np.maximum(w, floor)
    return (v / w[None, :]) @ v.conj().T


def _psd_step_len(x_blocks, dx_blocks) -> float:
    """Largest alpha with X + alpha dX staying PD (0.98 backoff applied by caller)."""
    alpha = 1.0
    for x, dx in zip(x_blocks, dx_blocks):
        w, v = np.linalg.eigh(_herm(x))
        floor = max(float(w.max(initial=0.0)), 1e-300) * 1e-16
        w = np.maximum(w, floor)
        inv_sqrt = v / np.sqrt(w)[None, :]
        mid = inv_sqrt.conj().T @ dx @ inv_sqrt
        wmin = float(np.linalg.eigvalsh(_herm(mid)).min())
        if wmin < 0:
            alpha = min(alpha, -1.0 / wmin)
    return alpha


def solve_sdp(prob: SdpProblem, tol: float = 1e-9, max_iter: int = 100) -> SdpResult:
    """Primal-dual path following on the slack-extended standard form."""
    prob = SdpProblem.build(prob.dims, prob.costs, prob.constraints)

    # slack 1x1 blocks turn inequalities into equalities
    dims = list(prob.dims)
    costs = [c.copy() for c in prob.costs]
    n_orig = len(dims)
    cons = []
    for con in prob.constraints:
        terms = list(con.terms)
        if con.sense != "==":
            sign = 1.0 if con.sense == "<=" else -1.0
            dims.append(1)
            costs.append(np.zeros((1, 1), complex))
            terms.append((len(dims) - 1, np.array([[sign]], complex)))
        cons.append((terms, con.rhs))
    m = len(cons)
    if m == 0:
        raise ConicError("solve_sdp needs at least one constraint")

    # row scaling
    b = np.array([rhs for _, rhs in cons])
    norms = np.array([
        max(1.0, np.sqrt(sum(float((np.abs(mat) ** 2).sum()) for _, mat in terms)))
        for terms, _ in cons
    ])
    b_s = b / norms
    cons_s = [([(k, mat / norms[j]) for k, mat in terms], b_s[j])
              for j, (terms, _) in enumerate(cons)]
    c_scale = max(1.0, max(float(np.abs(c).max(initial=0.0)) for c in costs))
    costs_s = [c / c_scale for c in costs]

    def op_a(x_blocks):
        out = np.zeros(m)
        for j, (terms, _) in enumerate(cons_s):
            out[j] = sum(float(np.trace(mat @ x_blocks[k]).real) for k, mat in terms)
        return out

    def op_at(y):
        out = [np.zeros((d, d), complex) for d in dims]
        for j, (terms, _) in enumerate(cons_s):
            for k, mat in terms:
                out[k] = out[k] + y[j] * mat
        return out

    n_tot = sum(dims)
    x_bl = [np.eye(d, dtype=complex) * max(1.0, abs(b_s).max()) for d in dims]
    z_bl = [np.eye(d, dtype=complex) * max(1.0, *(float(np.abs(c).max(initial=0.0)) for c in costs_s)) for d in dims]
    y = np.zeros(m)
    status = MAX_ITER
    it = 0

    for it in range(1, max_iter + 1):
        zinv = [_pd_inv(z) for z in z_bl]
        r_p = b_s - op_a(x_bl)
        aty = op_at(y)
        r_d = [costs_s[k] - aty[k] - z_bl[k] for k in range(len(dims))]
        mu = sum(float(np.trace(x @ z).real) for x, z in zip(x_bl, z_bl)) / n_tot

        pobj = sum(float(np.trace(c @ x).real) for c, x in zip(costs_s, x_bl))
        dobj = float(b_s @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        res_p = float(np.abs(r_p).max(initial=0.0)) / (1.0 + float(np.abs(b_s).max(initial=0.0)))
        res_d = max(float(np.abs(rd).max(initial=0.0)) for rd in r_d)
        if res_p <= tol and res_d <= tol * (1.0 + 1.0) and gap <= tol * 1e2:
            status = OPTIMAL
            break
        if float(np.abs(y).max(initial=0.0)) > 1e12:
            status = INFEASIBLE
            break

        # Schur complement of the symmetrized-HKM system
        h_ops = []   # H_j = Herm(X A_j Z^-1) per block
        for terms, _ in cons_s:
            h_ops.append({k: _herm(x_bl[k] @ mat @ zinv[k]) for k, mat in terms})
        m_mat = np.zeros((m, m))
        for j, (terms_j, _) in enumerate(cons_s):
            for l, (terms_l, _) in enumerate(cons_s):
                if l < j:
                    continue
                val = 0.0
                for k, mat_l in terms_l:
                    if k in h_ops[j]:
                        val += float(np.trace(mat_l @ h_ops[j][k]).real)
                m_mat[j, l] = m_mat[l, j] = val
        m_reg = m_mat + np.eye(m) * max(1e-13, 1e-13 * np.abs(m_mat).max())

        def direction(sigma_mu, corr_bl):
            base = []
            for k in range(len(dims)):
                t = sigma_mu * zinv[k] - x_bl[k] - _herm(x_bl[k] @ r_d[k] @ zinv[k])
                if corr_bl is not None:
                    t = t - _herm(corr_bl[k])
                base.append(t)
            rhs = r_p - op_a(base)
            dy = np.linalg.solve(m_reg, rhs)
            atdy = op_at(dy)
            dz = [r_d[k] - atdy[k] for k in range(len(dims))]
            dx = [_herm(base[k] + h_from(k, atdy[k], zinv[k])) for k in range(len(dims))]
            return dx, dy, dz

        def h_from(k, atdy_k, zinv_k):
            return x_bl[k] @ atdy_k @ zinv_k

        dx_a, dy_a, dz_a = direction(0.0, None)
        ap = _psd_step_len(x_bl, dx_a)
        ad = _psd_step_len(z_bl, dz_a)
        mu_aff = sum(
            float(np.trace((x + min(1, 0.98 * ap) * dx) @ (z + min(1, 0.98 * ad) * dz)).real)
            for x, dx, z, dz in zip(x_bl, dx_a, z_bl, dz_a)
        ) / n_tot
        sigma = min(0.999, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8)) if mu > 0 else 0.1

        corr = [dx_a[k] @ dz_a[k] @ zinv[k] for k in range(len(dims))]
        dx, dy, dz = direction(sigma * mu, corr)
        ap = min(1.0, 0.98 * _psd_step_len(x_bl, dx))
        ad = min(1.0, 0.98 * _psd_step_len(z_bl, dz))
        x_bl = [_herm(x + ap * d) for x, d in zip(x_bl, dx)]
        z_bl = [_herm(z + ad * d) for z, d in zip(z_bl, dz)]
        y = y + ad * dy

    # cost scaling affects duals only; the primal feasible set is untouched
    x_out = [x.copy() for x in x_bl]
    y_out = y * c_scale / norms
    pobj = sum(float(np.trace(c @ x).real) for c, x in zip(costs[:], x_out[: len(costs)]))
    dobj = float(b @ y_out)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

    viol = _constraint_violation(prob, x_out)
    min_eig = min(float(np.linalg.eigvalsh(_herm(x)).min()) for x in x_out[:n_orig])
    residuals = {"primal": viol, "min_eig": min_eig, "gap": gap}
    return SdpResult(
        blocks=[_herm(x) for x in x_out[:n_orig]],
        y=y_out, status=status, objective=pobj, dual_objective=dobj,
        gap=gap, iterations=it, residuals=residuals,
    )


def _constraint_violation(prob: SdpProblem, x_blocks) -> float:
    worst = 0.0
    for con in prob.constraints:
        val = sum(float(np.trace(mat @ x_blocks[k]).real) for k, mat in con.terms
                  if k < len(x_blocks))
        scale = 1.0 + abs(con.rhs)
        if con.sense == "==":
            worst = max(worst, abs(val - con.rhs) / scale)
        elif con.sense == "<=":
            worst = max(worst, max(0.0, val - con.rhs) / scale)
        else:
            worst = max(worst, max(0.0, con.rhs - val) / scale)
    return worst
