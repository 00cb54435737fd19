import numpy as np
import pytest

from fdiscc.conic import (INFEASIBLE, MAX_ITER, OPTIMAL, ConicError,
                          QcqpProblem, SdpConstraint, SdpProblem, fix_diag_entry,
                          qcqp_kkt_residuals, solve_qcqp, solve_sdp)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_psd(rng, n, shift=0.5):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T / n + shift * np.eye(n)


def dual_pg_oracle(prob, iters=1_000_000, lr=None):
    """Projected gradient ascent on the dual of the embedded QP.

    Independent of the interior-point path: only dense inverses and value
    iteration.  Returns the optimal objective value."""
    a, b = prob.a, prob.b
    d = np.atleast_2d(prob.d)
    e = np.atleast_1d(prob.e)
    n = a.shape[0]
    ar, ai = a.real, a.imag
    q = np.block([[ar, -ai], [ai, ar]])
    qe = np.concatenate([b.real, b.imag])
    g = np.concatenate([d.real, d.imag], axis=1)
    h = -e
    q_inv = np.linalg.inv(2 * q)

    def z_of(lam):
        return q_inv @ (2 * qe - g.T @ lam)

    lam = np.zeros(len(e))
    if lr is None:
        lr = 1.0 / (np.linalg.norm(g @ q_inv @ g.T, 2) + 1e-12)
    for _ in range(iters):
        grad = g @ z_of(lam) - h
        lam = np.maximum(lam + lr * grad, 0.0)
    z = z_of(lam)
    x = z[:n] + 1j * z[n:]
    return float((x.conj() @ a @ x).real - 2 * (b.conj() @ x).real + prob.c), x


class TestQcqp:
    def test_unconstrained_projection(self):
        prob = QcqpProblem(a=np.eye(1, dtype=complex), b=np.array([1 + 0j]))
        res = solve_qcqp(prob)
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(1.0)

    def test_halfspace_projection(self):
        # min |x|^2 s.t. Re{x} >= 1
        prob = QcqpProblem(a=np.eye(1, dtype=complex), b=np.zeros(1, complex),
                           d=np.array([[-1 + 0j]]), e=np.array([1.0]))
        res = solve_qcqp(prob)
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.duals[0] == pytest.approx(2.0, rel=1e-6)

    def test_embedding_matches_complex_oracle_3x3(self):
        # brute-force complex evaluation on a fine grid is impractical; use
        # the analytic unconstrained solution x = A^-1 b instead
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_psd(rng, 3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            res = solve_qcqp(QcqpProblem(a=a, b=b))
            assert np.allclose(res.x, np.linalg.solve(a, b), atol=1e-9)

    def test_random_instances_vs_dual_pg_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n, m = 8, 3
            prob = QcqpProblem(
                a=random_psd(rng, n), b=rng.normal(size=n) + 1j * rng.normal(size=n),
                c=float(rng.normal()),
                d=rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)),
                e=rng.normal(size=m))
            res = solve_qcqp(prob)
            assert res.status == OPTIMAL
            oracle_obj, _ = dual_pg_oracle(prob, iters=200_000)
            assert res.objective == pytest.approx(oracle_obj, rel=1e-6, abs=1e-8)

    def test_kkt_residuals_within_tolerance(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(2, 33))
            m = int(rng.integers(1, 6))
            prob = QcqpProblem(
                a=random_psd(rng, n), b=rng.normal(size=n) + 1j * rng.normal(size=n),
                d=rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)),
                e=rng.normal(size=m))
            res = solve_qcqp(prob)
            assert res.status == OPTIMAL
            kkt = qcqp_kkt_residuals(prob, res.x, res.duals)
            assert kkt["stationarity"] <= 1e-7
            assert kkt["primal"] <= 1e-7
            assert kkt["dual"] <= 1e-7
            assert kkt["complementarity"] <= 1e-7

    def test_infeasible_certificate(self):
        # Re{x} <= -1 and Re{x} >= 1 cannot hold together
        prob = QcqpProblem(a=np.eye(1, dtype=complex), b=np.zeros(1, complex),
                           d=np.array([[1 + 0j], [-1 + 0j]]), e=np.array([1.0, 1.0]))
        res = solve_qcqp(prob)
        assert res.status == INFEASIBLE
        ray = res.certificate
        assert ray is not None and np.all(ray >= -1e-12)
        d = np.atleast_2d(prob.d)
        assert np.abs(ray @ d).max() <= 1e-6
        assert ray @ prob.e > 0

    def test_rejects_non_psd(self):
        with pytest.raises(ConicError):
            solve_qcqp(QcqpProblem(a=-np.eye(2, dtype=complex), b=np.zeros(2, complex)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        prob = QcqpProblem(
            a=random_psd(rng, 5), b=rng.normal(size=5) + 1j * rng.normal(size=5),
            d=rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)), e=rng.normal(size=2))
        x1 = solve_qcqp(prob).x
        x2 = solve_qcqp(prob).x
        assert np.array_equal(x1, x2)


def rank1_envelope_oracle(c, d_mat, rhs, tau_range=50.0, refine=200):
    """Independent optimum of min Tr(CX) s.t. Tr(X)=1, Tr(DX)=rhs, X >= 0.

    Every achievable (Tr(DX), Tr(CX)) pair is a convex combination of rank-one
    points (v^H D v, v^H C v) on the unit sphere; the lower envelope at a
    given abscissa equals max_tau [lambda_min(C + tau D) - tau*rhs], a 1-D
    concave maximization evaluated here by golden-section search after a
    coarse grid."""
    def g(tau):
        return float(np.linalg.eigvalsh(c + tau * d_mat).min()) - tau * rhs

    taus = np.linspace(-tau_range, tau_range, 2001)
    vals = [g(t) for t in taus]
    i = int(np.argmax(vals))
    lo, hi = taus[max(i - 1, 0)], taus[min(i + 1, len(taus) - 1)]
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(refine):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = g(x1)
    return max(max(vals), f1, f2)


class TestSdp:
    def test_min_eigenvalue_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            c = random_hermitian(rng, 4)
            prob = SdpProblem(dims=(4,), costs=(c,), constraints=(
                SdpConstraint(((0, np.eye(4, dtype=complex)),), "==", 1.0),))
            res = solve_sdp(prob)
            lam = np.linalg.eigvalsh(c)
            assert res.status == OPTIMAL
            assert res.objective == pytest.approx(lam.min(), abs=1e-7)
            # optimal X concentrates on the minimal eigenspace
            vecs = np.linalg.eigh(c)[1]
            v = vecs[:, 0]
            assert float((v.conj() @ res.blocks[0] @ v).real) == pytest.approx(1.0, abs=1e-5)

    def test_zero_cost_any_feasible(self):
        prob = SdpProblem(dims=(3,), costs=(np.zeros((3, 3), complex),), constraints=(
            SdpConstraint(((0, np.eye(3, dtype=complex)),), "==", 1.0),))
        res = solve_sdp(prob)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert float(np.trace(res.blocks[0]).real) == pytest.approx(1.0, abs=1e-7)

    def test_random_vs_rank1_envelope_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            c = random_hermitian(rng, 4)
            d_mat = random_hermitian(rng, 4)
            lam_d = np.linalg.eigvalsh(d_mat)
            rhs = float(rng.uniform(lam_d.min() + 0.1, lam_d.max() - 0.1))
            prob = SdpProblem(dims=(4,), costs=(c,), constraints=(
                SdpConstraint(((0, np.eye(4, dtype=complex)),), "==", 1.0),
                SdpConstraint(((0, d_mat),), "==", rhs)))
            res = solve_sdp(prob)
            assert res.status == OPTIMAL
            oracle = rank1_envelope_oracle(c, d_mat, rhs)
            assert res.objective == pytest.approx(oracle, abs=1e-4)

    def test_corpus_residuals(self):
        # 50 random instances: blocks <= 6x6, mixed senses
        rng = np.random.default_rng(6)
        for trial in range(50):
            nb = int(rng.integers(1, 3))
            dims = tuple(int(rng.integers(2, 7)) for _ in range(nb))
            costs = tuple(random_hermitian(rng, d) for d in dims)
            cons = [SdpConstraint(tuple((k, np.eye(d, dtype=complex))
                                        for k, d in enumerate(dims)), "==",
                                  float(nb + rng.uniform(0, 2)))]
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(0, nb))
                sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
                mat = random_hermitian(rng, dims[k])
                lam = np.linalg.eigvalsh(mat)
                rhs = float(rng.uniform(lam.min(), lam.max()))
                if sense == "==":
                    rhs = float(rng.uniform(lam.min() + 0.2 * (lam.max() - lam.min()),
                                            lam.max() - 0.2 * (lam.max() - lam.min())))
                cons.append(SdpConstraint(((k, mat),), sense, rhs))
            prob = SdpProblem(dims=dims, costs=costs, constraints=tuple(cons))
            res = solve_sdp(prob)
            if res.status != OPTIMAL:
                continue  # statistically rare non-Slater construction
            assert res.gap <= 1e-6
            assert res.residuals["primal"] <= 1e-7
            assert res.residuals["min_eig"] >= -1e-8
            # weak duality on the reported pair
            assert res.objective >= res.dual_objective - 1e-6 * (1 + abs(res.objective))

    def test_corpus_mostly_solved(self):
        # same corpus as above must be solved essentially always
        rng = np.random.default_rng(6)
        solved = 0
        total = 50
        for trial in range(total):
            nb = int(rng.integers(1, 3))
            dims = tuple(int(rng.integers(2, 7)) for _ in range(nb))
            costs = tuple(random_hermitian(rng, d) for d in dims)
            cons = [SdpConstraint(tuple((k, np.eye(d, dtype=complex))
                                        for k, d in enumerate(dims)), "==",
                                  float(nb + rng.uniform(0, 2)))]
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(0, nb))
                sense = ("<=", ">=", "==")[int(rng.integers(0, 3))]
                mat = random_hermitian(rng, dims[k])
                lam = np.linalg.eigvalsh(mat)
                rhs = float(rng.uniform(lam.min(), lam.max()))
                if sense == "==":
                    rhs = float(rng.uniform(lam.min() + 0.2 * (lam.max() - lam.min()),
                                            lam.max() - 0.2 * (lam.max() - lam.min())))
                cons.append(SdpConstraint(((k, mat),), sense, rhs))
            res = solve_sdp(SdpProblem(dims=dims, costs=costs, constraints=tuple(cons)))
            solved += res.status == OPTIMAL
        assert solved >= 48

    def test_fixed_entry_constraint(self):
        rng = np.random.default_rng(7)
        c = random_hermitian(rng, 3)
        prob = SdpProblem(dims=(3,), costs=(c,), constraints=(
            fix_diag_entry(0, 3, 2, 1.0),
            SdpConstraint(((0, np.eye(3, dtype=complex)),), "<=", 2.0)))
        res = solve_sdp(prob)
        assert res.status == OPTIMAL
        assert float(res.blocks[0][2, 2].real) == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_detected(self):
        prob = SdpProblem(dims=(3,), costs=(np.eye(3, dtype=complex),), constraints=(
            SdpConstraint(((0, np.eye(3, dtype=complex)),), "==", -1.0),))
        res = solve_sdp(prob)
        assert res.status in (INFEASIBLE, MAX_ITER)
        assert res.status == INFEASIBLE

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        c = random_hermitian(rng, 4)
        prob = SdpProblem(dims=(4,), costs=(c,), constraints=(
            SdpConstraint(((0, np.eye(4, dtype=complex)),), "==", 1.0),))
        a = solve_sdp(prob).blocks[0]
        b = solve_sdp(prob).blocks[0]
        assert np.array_equal(a, b)
