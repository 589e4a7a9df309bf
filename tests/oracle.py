"""Extended-precision reference for the TLS condition number.

kappa is recomputed at 50 significant digits with mpmath from the exact
binary data of [A b]: the SVD of [A b] by mp.svd_r, x from the trailing
right singular vector (oracle_x), and kappa = sqrt(1+||x||^2) ||V11^{-T} S||. It shares
no code and no rounding with the double-precision routes, so it can judge
them where the explicit K is gated (relative gap below 1e-6). The relative
gap (sigma_hat_n - sigma_{n+1}) / sigma_hat_n is recomputed the same way, from
mp.svd_r of A and of [A b], and so is |u_hat_n . b|, the weight of b on A's
last left singular vector. Callers guard them with pytest.importorskip("mpmath").
"""

import mpmath

_AUG_SVDS = {}  # (shape, data, dps) -> mp.svd_r of [A b], shared by both oracles


def _aug_svd(problem, dps):
    aug = problem.augmented()
    key = (aug.shape, aug.tobytes(), dps)
    if key not in _AUG_SVDS:
        with mpmath.workdps(dps):  # float entries convert exactly
            _AUG_SVDS[key] = mpmath.svd_r(mpmath.matrix(aug.tolist()), full_matrices=False)
    return _AUG_SVDS[key]


def oracle_kappa(problem, dps: int = 50) -> float:
    """The absolute TLS condition number of problem, evaluated at dps digits."""
    with mpmath.workdps(dps):
        n = problem.n
        _, sigma, vt = _aug_svd(problem, dps)
        corner = vt[n, n]
        x = [-vt[n, i] / corner for i in range(n)]
        sig2 = sigma[n] ** 2
        s = [mpmath.sqrt(sigma[i] ** 2 + sig2) / (sigma[i] ** 2 - sig2) for i in range(n)]
        # V11 = V[:n, :n] = vt[:n, :n]^T, so V11^{-T} = vt[:n, :n]^{-1}
        v11_inv_t = mpmath.inverse(vt[:n, :n])
        scaled = v11_inv_t * mpmath.diag(s)
        norm = max(mpmath.svd_r(scaled, compute_uv=False))
        return float(mpmath.sqrt(1 + sum(xi**2 for xi in x)) * norm)


def oracle_x(problem, dps: int = 50) -> list[float]:
    """The TLS solution x of problem, from the same dps-digit SVD of [A b]."""
    with mpmath.workdps(dps):
        n = problem.n
        vt = _aug_svd(problem, dps)[2]
        return [float(-vt[n, i] / vt[n, n]) for i in range(n)]


def oracle_rel_gap(problem, dps: int = 50) -> float:
    """(sigma_hat_n - sigma_{n+1}) / sigma_hat_n of problem, evaluated at dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.matrix(problem.a_matrix.tolist())
        sigma_hat_n = min(mpmath.svd_r(a, compute_uv=False))
        sigma_last = _aug_svd(problem, dps)[1][problem.n]
        return float((sigma_hat_n - sigma_last) / sigma_hat_n)


def oracle_b_weight_n(problem, dps: int = 50) -> float:
    """|u_hat_n . b| of problem, from the 50-digit SVD of A, evaluated at dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.matrix(problem.a_matrix.tolist())
        u, sigma_hat, _ = mpmath.svd_r(a, full_matrices=False)
        last = min(range(problem.n), key=lambda i: sigma_hat[i])
        return float(abs(sum(u[i, last] * float(b) for i, b in enumerate(problem.b_vector))))
