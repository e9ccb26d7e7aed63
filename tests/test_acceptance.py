"""Acceptance gate: the nine headline checks, one pass/fail line each.

Each check drives the corresponding catalog experiment at its default
configuration and asserts every experiment assertion at the stated
tolerance.  Check 2b is expected to fail: the operator path and the
fast path of the antisymmetrized degree-3 evaluation do not agree at
1e-8, because they sum different parts of one double series.  With
X_km = A_k B_m - C_k D_m over the power-of-two support of the lacunary
quadruple, the operator path is
S_op(N) = 1/2 sum_{k>m} X_km (min(k,N) - min(k-m,N) - min(m,N)) and the
fast path S_fast(N) = sum_{k<N, m>=k} k X_km; tests/test_cocycles.py
gates each path against its form, README.md defines A, B, C and D, and
the artifact CSVs written next to the report hold both series.
"""
import sys

import pytest

from chernlab.experiments import run_experiment


def _gate(tag: str, report) -> None:
    status = "PASS" if report.passed else "FAIL"
    line = f"[{status}] {tag}: {report.name} ({report.wall_time:.1f}s)"
    print(line, file=sys.stderr)
    failed = [a for a in report.assertions if not a.passed]
    assert report.passed, (
        f"{tag} failed: " + "; ".join(
            f"{a.name} (measured {a.measured!r}, expected {a.expected!r})"
            for a in failed))


def test_1_exact_pairing(tmp_path):
    _gate("check 1, exact generator pairing",
          run_experiment("lkandapdn-pairing", out_dir=tmp_path))


def test_2a_wedge_fast_path_limit(tmp_path):
    _gate("check 2a, antisymmetrized lacunary limit",
          run_experiment("fourtedo-limit", out_dir=tmp_path))


def test_2b_wedge_operator_path_agreement(tmp_path):
    _gate("check 2b, operator path vs fast path at 1e-8",
          run_experiment("fourtedo-operator-crosscheck", out_dir=tmp_path))


def test_3_projector_product_calibration(tmp_path):
    _gate("check 3, closed form vs dense window",
          run_experiment("szego-diagonal-dense-check", out_dir=tmp_path / "dense"))
    _gate("check 3, log-mean constant and proportionality",
          run_experiment("compmpmpnpanf-calibration", out_dir=tmp_path / "cal"))


def test_4_vanishing_on_trig_polynomials(tmp_path):
    _gate("check 4, degree-3 cocycle probes vanish",
          run_experiment("smooth-vanishing-comega", out_dir=tmp_path / "c"))
    _gate("check 4, coboundary probes vanish",
          run_experiment("hochschild-cocycle-vanishing", out_dir=tmp_path / "bh"))


def test_5_singular_value_decay(tmp_path):
    _gate("check 5, commutator singular value slope",
          run_experiment("svd-decay-szego", out_dir=tmp_path))


def test_6_torus_kernel_identities(tmp_path):
    _gate("check 6, torus kernel vs operator diagonal",
          run_experiment("adnaodnaond-kernel-equivalence", out_dir=tmp_path))


def test_7_chain_identities(tmp_path):
    _gate("check 7, exact chain identities",
          run_experiment("chain-identities", out_dir=tmp_path))


def test_8_cutoff_decay_rates(tmp_path):
    _gate("check 8, approximate-diagonal decay slopes",
          run_experiment("approxomtienri-decay", out_dir=tmp_path))


def test_9_extended_limit_sensitivity(tmp_path):
    _gate("check 9, oscillating-sequence separation",
          run_experiment("extended-limit-sensitivity", out_dir=tmp_path))
