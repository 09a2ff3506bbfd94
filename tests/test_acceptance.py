"""Acceptance criteria, one test per numbered criterion.

Each test prints a one-line pass/fail report for its criterion and then
asserts it.  Criterion 8 is split: the endpoint families and the
clock-consistent closed form pass; the literally stated double-root
time exponent contradicts the clock identity (and the direct
integration, and Ricci-flatness of the resulting metric), so that
sub-check is implemented faithfully and is expected to fail.  The
analysis lives in the decisions ledger.
"""

from so3g2 import verify


def _run(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_jacobi_exactness():
    _run(verify.suite_jacobi(n_samples=1000))


def test_criterion_02_killing_identity():
    _run(verify.suite_killing(n_samples=1000))


def test_criterion_03_classification():
    _run(verify.suite_classification(n_samples=200))


def test_criterion_04_curvature_oracle():
    _run(verify.suite_curvature(n_samples=200))


def test_criterion_05_einstein_locus():
    _run(verify.suite_einstein(n_samples=10000))


def test_criterion_06_conformal_flatness():
    _run(verify.suite_conformal())


def test_criterion_07_flow_clock():
    _run(verify.suite_flow_clock(n_samples=20))


def test_criterion_08_endpoint_lemma():
    _run(verify.suite_endpoints())


def test_criterion_08_stated_case2_exponent():
    """Faithful check of the stated closed form s = -t^2 (3 lam)^(2/3) / 4.

    Expected to fail: the clock identity (criterion 7) forces the
    exponent 1/3, as does the direct integration oracle, and only the
    1/3 family is Ricci-flat.  See the decisions ledger.
    """
    _run(verify.suite_case2_stated())


def test_criterion_09_non_completeness():
    _run(verify.suite_noncomplete(n_samples=100))


def test_criterion_10_g2_closedness_and_smoothness():
    _run(verify.suite_g2_closedness())


def test_criterion_11_triality():
    _run(verify.suite_triality())


def test_criterion_12_contractions():
    _run(verify.suite_contractions())


def test_criterion_13_hamiltonian():
    _run(verify.suite_hamiltonian())
