import numpy as np
import pytest

import tlscond as tc


@pytest.fixture
def fix_a():
    # x = 0 case: A^T b vanishes, alpha = 1
    return tc.TlsProblem([[2.0], [0.0]], [0.0, 1.0], label="fix_a")


@pytest.fixture
def fix_b():
    # golden-ratio solution, alpha slightly above 1/2
    return tc.TlsProblem([[1.0], [0.0]], [1.0, 1.0], label="fix_b")


def pipeline(problem):
    """(bundle, solution, work) for a solvable problem."""
    bundle = tc.svd_bundle(problem)
    solution = tc.solve_tls(problem, bundle)
    return bundle, solution, tc.build_spectral_work(problem, bundle, solution)


def tie_problem(b=(0.0, 0.0, 1.0, 1.0, 0.0)):
    """A = 3 [I_3; 0]: s_2 = s_3 tie; at the default b also beta_2 = beta_3 = 0."""
    return tc.TlsProblem(3.0 * np.vstack([np.eye(3), np.zeros((2, 3))]), np.array(b))


def tied_weighted_problem(seed=2):
    """[A b] = U diag(3, 3, 1, 0.5) W^T (6x4): s_1 = s_2 tied, both beta_1, beta_2 nonzero."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    aug = (u * [3.0, 3.0, 1.0, 0.5]) @ tc.haar_orthogonal(4, rng).T
    return tc.TlsProblem(aug[:, :3], aug[:, 3])


def k_of(problem):
    """The explicit first-order map K of a solvable problem."""
    bundle, solution, _ = pipeline(problem)
    return tc.build_k_matrix(problem, bundle, solution)


class FixBClosedForms:
    """Hand-derived exact values for the golden-ratio fixture."""

    x = (1.0 + np.sqrt(5.0)) / 2.0
    sig1_sq = (3.0 + np.sqrt(5.0)) / 2.0
    sig2_sq = (3.0 - np.sqrt(5.0)) / 2.0
    sig2 = np.sqrt(sig2_sq)
    sigma_hat = 1.0
    alpha = 1.0 / np.sqrt(1.0 + x**2)
    s1 = np.sqrt(3.0 / 5.0)
    kappa = (1.0 + x**2) * s1                      # alpha^{-2} s_1 (n = 1)
    kappa_rel = kappa * np.sqrt(3.0) / x
    kappa1_upper = np.sqrt(1.0 + x**2) * np.sqrt(1.0 + sig2_sq) / (1.0 - sig2_sq)
    kappa2_lower = np.sqrt(1.0 + x**2) / np.sqrt(1.0 - sig2_sq)
    bhm = 1.0 / (1.0 - sig2)
    simple_lower = np.sqrt(1.0 + x**2) * s1
    simple_upper = kappa
    sharp_lower = 0.5 * (1.0 + x**2) * s1
    sharp_upper = (1.0 + x**2) * s1 + np.sqrt(1.0 + x**2) * s1
    gap_chain_lower = 1.0 / (2.0 * x)
    gap_chain_mid = 1.0 - sig2
    gap_chain_upper = np.sqrt(2.0) / x
