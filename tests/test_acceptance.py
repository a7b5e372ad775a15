"""Acceptance gate: thirteen criteria, one test (and one printed pass/fail
line) per criterion, each at its stated tolerance."""

import sys

import numpy as np

from ckq import ck_classical as ck
from ckq import dual, frt
from ckq.free_algebra import confluence_check
from ckq.frt import FROZEN_QUOTIENT_RANK
from ckq.pimenov import KERNELS, ParameterSignature, PimenovElement, pim_apply, worst_residual

from oracles import grassmann_product, lift_fd, lift_taylor
from test_ck_classical import all_signatures, random_vector
from test_frt import golden_entries

QUANTUM_SIGS = [ParameterSignature.parse(s) for s in ("1,1", "1,n", "n,1", "n,n")]
CONTRACTED_SIGS = QUANTUM_SIGS[1:]
V_SAMPLES = [0.37, 0.61 + 0.29j]


def conclude(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}", file=sys.stderr)
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_function_lifting():
    rng = np.random.default_rng(101)
    struct, fd_gaps = [], []
    for name in sorted(KERNELS):
        for _ in range(100):
            base = complex(rng.uniform(0.6, 2.0), rng.uniform(-0.4, 0.4))
            coeffs = {m: complex(rng.normal(), rng.normal()) for m in range(8)}
            coeffs[0] = base
            a = PimenovElement(3, coeffs)
            lifted = pim_apply(KERNELS[name], a)
            oracle = lift_taylor(name, a)
            struct.append((lifted - oracle).max_abs() / max(1.0, oracle.max_abs()))
        for _ in range(100):
            coeffs = {m: complex(rng.normal(), rng.normal()) for m in range(4)}
            coeffs[0] = complex(rng.uniform(0.6, 2.0), rng.uniform(-0.4, 0.4))
            a = PimenovElement(2, coeffs)
            lifted = pim_apply(KERNELS[name], a)
            fd = lift_fd(name, a)
            fd_gaps.append((lifted - fd).max_abs() / max(1.0, lifted.max_abs()))
    worst_struct, worst_fd = worst_residual(struct), worst_residual(fd_gaps)
    conclude(
        "01 function-lifting",
        worst_struct <= 1e-12 and worst_fd <= 1e-6,
        f"structure {worst_struct:.2e}, finite-difference {worst_fd:.2e}",
    )


def test_criterion_02_grassmann_embedding():
    rng = np.random.default_rng(102)
    mismatches = 0
    for _ in range(100):
        a = PimenovElement(
            2, {m: complex(rng.integers(-5, 6), rng.integers(-5, 6)) for m in range(4)}
        )
        b = PimenovElement(
            2, {m: complex(rng.integers(-5, 6), rng.integers(-5, 6)) for m in range(4)}
        )
        if ((a * b) - grassmann_product(a, b)).max_abs() != 0:
            mismatches += 1
    conclude("02 grassmann-embedding", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_03_classical_groups():
    rng = np.random.default_rng(103)
    residuals = []
    for size in (2, 3, 4):
        for sig in all_signatures(size):
            A = ck.random_group_element(sig, 5, rng)
            residuals.append(ck.verify_j_orthogonality(A))
            residuals.append((ck.ck_det(A) - 1).max_abs())
            x = random_vector(sig, size, rng)
            residuals.append(
                (ck.quadratic_form(x) - ck.quadratic_form(ck.apply_matrix(A, x))).max_abs()
            )
            residuals.append(ck.symplectic_orthogonality_residual(ck.to_symplectic(A)))
    worst = worst_residual(residuals)
    basis_gaps = []
    for size in (2, 3, 4):
        D, _ = ck.symplectic_transform(size)
        basis_gaps.append(np.abs(D.T @ ck.c0_matrix(size) @ D - np.eye(size)).max())
    worst_d = worst_residual(basis_gaps)
    conclude(
        "03 classical-groups",
        worst <= 1e-10 and worst_d <= 1e-14,
        f"group residual {worst:.2e}, basis change {worst_d:.2e}",
    )


def test_criterion_04_line_geometry():
    rng = np.random.default_rng(104)
    residuals = []
    checked = 0
    while checked < 1000:
        omega = int(rng.integers(-1, 2))
        xi, a, b = rng.uniform(-0.4, 0.4, size=3)
        try:
            two_step = ck.translate(omega, ck.translate(omega, xi, a), b)
            combined = ck.translate(omega, xi, (a + b) / (1 - omega * a * b))
            d1 = ck.distance(omega, xi, a)
            d2 = ck.distance(omega, ck.translate(omega, xi, b), ck.translate(omega, a, b))
        except (ck.PoleEncountered, ZeroDivisionError):
            continue
        residuals += [abs(two_step - combined), abs(d1 - d2)]
        checked += 1
    worst = worst_residual(residuals)
    demo = ck.contraction_limit_demo(0.3, 1.0, 0.5, [2.0 ** (-k) * 1e-1 for k in range(7)])
    ratio = demo["steps"][-1]["ratio"]
    conclude(
        "04 line-geometry",
        worst <= 1e-12 and 0.2 <= ratio <= 0.3,
        f"residual {worst:.2e}, final halving ratio {ratio:.4f}",
    )


def test_criterion_05_rmatrix_golden_table():
    gaps = []
    for v in V_SAMPLES:
        R = frt.rmatrix3(QUANTUM_SIGS[0], v)
        gold = golden_entries(v)
        for i in range(9):
            for j in range(9):
                want = gold.get((i + 1, j + 1), 0)
                gaps.append(abs(R.mat.entry(i, j).scalar_part - want))
    worst = worst_residual(gaps)
    structural = worst_residual(
        frt.contracted_structure_residual(frt.rmatrix3(sig, 0.37))
        for sig in CONTRACTED_SIGS
    )
    conclude(
        "05 rmatrix-golden-table",
        worst <= 1e-12 and structural == 0.0,
        f"entry residual {worst:.2e}, contracted structural {structural:.2e}",
    )


def test_criterion_06_yang_baxter():
    worst = worst_residual(
        frt.qybe_check(frt.rmatrix3(sig, v))
        for sig in QUANTUM_SIGS
        for v in V_SAMPLES
    )
    bad = frt.rmatrix3(QUANTUM_SIGS[0], 0.37)
    bad.mat.blocks[0][3, 1] += 0.2
    control = frt.qybe_check(bad)
    conclude(
        "06 yang-baxter",
        worst <= 1e-10 and control > 1e-2,
        f"residual {worst:.2e}, corrupted control {control:.2e}",
    )


def test_criterion_07_quotient_well_defined():
    discrepancies = []
    words_ok = True
    for sig in QUANTUM_SIGS:
        rep = confluence_check(frt.reduction_system(sig, 0.37))
        discrepancies.append(rep["max_discrepancy"])
        words_ok = words_ok and rep["words_checked"] == 729
    worst = worst_residual(discrepancies)
    ranks_ok = all(
        frt.rtt_rank(sig, v) == FROZEN_QUOTIENT_RANK[str(sig)]
        for sig in QUANTUM_SIGS
        for v in V_SAMPLES
    )
    conclude(
        "07 quotient-well-defined",
        worst <= 1e-9 and words_ok and ranks_ok,
        f"max discrepancy {worst:.2e}, ranks frozen {ranks_ok}",
    )


def test_criterion_08_hopf_axioms():
    residuals = []
    counit_exact = True
    for sig in QUANTUM_SIGS:
        residuals.append(frt.antipode_check(sig, 0.37)["residual"])
        residuals.append(frt.coproduct_compatibility(sig, 0.37)["residual"])
        counit_exact = counit_exact and frt.counit_residual(sig, 0.37) == 0.0
    worst = worst_residual(residuals)
    conclude(
        "08 hopf-axioms",
        worst <= 1e-9 and counit_exact,
        f"residual {worst:.2e}, counit exact {counit_exact}",
    )


def test_criterion_09_contraction_transform():
    worst = worst_residual(
        frt.verify_contraction_transform(sig, 0.37)["residual"]
        for sig in CONTRACTED_SIGS
    )
    conclude("09 contraction-transform", worst <= 1e-9, f"residual {worst:.2e}")


def test_criterion_10_pairing_golden_table():
    worst = worst_residual(
        dual.verify_pairing_table(sig, v)["residual"] for sig in QUANTUM_SIGS for v in V_SAMPLES
    )
    rep = dual.verify_pairing_table(QUANTUM_SIGS[0], 0.37)
    flags = {f["entry"] for f in rep["flagged"]}
    flags_ok = flags == {"l13(tt13)", "lt13(t13)"} and not rep["unlisted_nonzero"]
    conclude(
        "10 pairing-golden-table",
        worst <= 1e-10 and flags_ok,
        f"residual {worst:.2e}; corner entries match at half the published "
        "magnitude, with the J and 1/J prefactor variants indistinguishable",
    )


def test_criterion_11_dual_algebra():
    residuals = []
    for sig in QUANTUM_SIGS:
        residuals.append(dual.verify_L_relations(sig, 0.37)["residual"])
        for v in V_SAMPLES:
            residuals.append(dual.verify_dual_commutators(sig, v)["residual"])
    worst = worst_residual(residuals)
    conclude("11 dual-algebra", worst <= 1e-9, f"residual {worst:.2e}")


def test_criterion_12_sow_hopf_suite():
    worst = worst_residual(
        dual.verify_sow_hopf(sig, dw=8)["residual"] for sig in QUANTUM_SIGS
    )
    series = [
        dual.verify_sow_hopf(QUANTUM_SIGS[0], dw=d)["residual"]
        for d in (6, 8, 10)
    ]
    monotone = series[1] <= series[0] + 1e-15 and series[2] <= series[1] + 1e-15
    conclude(
        "12 sow-hopf-suite",
        worst <= 1e-9 and monotone,
        f"residual {worst:.2e}, truncation series {['%.1e' % r for r in series]}",
    )


def test_criterion_13_duality_isomorphism():
    trivial = dual.verify_duality_isomorphism(QUANTUM_SIGS[0], dw=8)["residual"]
    contracted = worst_residual(
        dual.verify_duality_isomorphism(sig, dw=8)["residual"]
        for sig in CONTRACTED_SIGS
    )
    conclude(
        "13 duality-isomorphism",
        trivial <= 1e-8 and contracted <= 1e-12,
        f"trivial {trivial:.2e}, contracted {contracted:.2e}",
    )
