"""Extended-precision reference for the TLS condition number.

kappa is recomputed at 50 significant digits with mpmath from the exact
binary data of [A b]: the SVD of [A b] by mp.svd_r, x from the trailing
right singular vector, and kappa = sqrt(1+||x||^2) ||V11^{-T} S||. It shares
no code and no rounding with the double-precision routes, so it can judge
them where the explicit K is gated (relative gap below 1e-6). Callers guard
it with pytest.importorskip("mpmath").
"""

import mpmath


def oracle_kappa(problem, dps: int = 50) -> float:
    """The absolute TLS condition number of problem, evaluated at dps digits."""
    with mpmath.workdps(dps):
        aug = mpmath.matrix(problem.augmented().tolist())  # float entries convert exactly
        n = problem.n
        _, sigma, vt = mpmath.svd_r(aug, full_matrices=False)
        corner = vt[n, n]
        x = [-vt[n, i] / corner for i in range(n)]
        sig2 = sigma[n] ** 2
        s = [mpmath.sqrt(sigma[i] ** 2 + sig2) / (sigma[i] ** 2 - sig2) for i in range(n)]
        # V11 = V[:n, :n] = vt[:n, :n]^T, so V11^{-T} = vt[:n, :n]^{-1}
        v11_inv_t = mpmath.inverse(vt[:n, :n])
        scaled = v11_inv_t * mpmath.diag(s)
        norm = max(mpmath.svd_r(scaled, compute_uv=False))
        return float(mpmath.sqrt(1 + sum(xi**2 for xi in x)) * norm)
