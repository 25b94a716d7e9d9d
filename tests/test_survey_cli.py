import argparse
import gc
import hashlib
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from theta_selmer import arith, cassels, classgroup, cli, descent, monsky, survey
from theta_selmer.arith import factor_range, factor_squarefree, is_squarefree
from theta_selmer.gf2 import BitMatrix, BitVector
from theta_selmer.monsky import THETA_2PI3, THETA_PI3


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "theta_selmer.cli", *argv],
        capture_output=True, text=True, timeout=600,
        env=None if env is None else {**os.environ, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_row_fields():
    row = survey.analyze(365, THETA_PI3)
    assert row.n == 365 and row.theta == THETA_PI3
    assert row.template == "A2" and row.s2 == 2
    assert row.certificate_kind == cassels.KIND_THM71
    assert row.residue24 == 5 and row.parity_ok


def test_csv_column_order():
    rows = [survey.analyze(m, THETA_PI3, with_certificate=False) for m in (1, 2, 3)]
    out = survey.rows_to_csv(rows)
    header = out.splitlines()[0]
    assert header == ",".join(survey.CSV_FIELDS)
    assert header.startswith("n,theta,eta,ntilde,t,residue24,template,s2")


def test_csv_line_follows_csv_fields():
    # csv_line spells the fields out; this reads them through CSV_FIELDS
    for row in survey.survey_range(300, with_certificates=True):
        want = ",".join(str(int(v)) if isinstance(v, bool) else str(v)
                        for v in (getattr(row, f) for f in survey.CSV_FIELDS))
        assert row.csv_line() == want


def test_scan_parity_small():
    report, failures, rows = survey.scan_parity(120)
    assert report.passed and not failures
    assert report.counts["checked"] == len(rows)
    # m = 6 mod 24 rows are odd for pi/3 and even for 2pi/3
    for r in rows:
        if r.residue24 == 6:
            want = "odd" if r.theta == THETA_PI3 else "even"
            assert r.parity_predicted == want


def test_scan_oracle_small():
    failures, triples = survey.scan_oracle(30)
    assert not failures
    assert len(triples) == 2 * len([m for m in range(1, 31) if is_squarefree(m)])


def test_determinism_and_parallel_equals_serial():
    rows_a = survey.survey_range(80, jobs=1)
    rows_b = survey.survey_range(80, jobs=1)
    rows_p = survey.survey_range(80, jobs=2)
    assert survey.rows_to_csv(rows_a) == survey.rows_to_csv(rows_b)
    assert survey.rows_to_csv(rows_a) == survey.rows_to_csv(rows_p)


def test_density_report_shape():
    reports = survey.scan_r4_density(4000)
    assert len(reports) == 4
    neg0 = reports[0]
    assert "D<0" in neg0.population and neg0.size > 0
    total = sum(neg0.counts.values())
    assert total == neg0.size


def test_density_negative_histogram_matches_forms_oracle():
    # the scan's Redei r4 against the reduced-forms class group, D by D
    want: dict[str, int] = {}
    for D in range(-3000, -2):
        if classgroup.is_fundamental(D):
            k = str(classgroup.forms_class_group(D).r4)
            want[k] = want.get(k, 0) + 1
    neg0, neg1 = survey.scan_r4_density(3000)[:2]
    assert neg0.counts == neg1.counts == want
    assert neg0.size == sum(want.values())


def test_density_walk_matches_reference_histograms():
    # the prime-product walk and its signature tally against r4 taken D by D
    # from is_fundamental and classgroup.r4, over every bound in -5..400
    r4_of = {}
    for D in range(-10007, 10008):
        if D != 1 and classgroup.is_fundamental(D):
            r4_of[D] = str(classgroup.r4(D if D % 4 == 1 else D // 4))
    small = {D: k for D, k in r4_of.items() if abs(D) <= 400}
    for bound in [*range(-5, 401), 4095, 4096, 4097, 10007]:
        want: dict[int, dict[str, int]] = {-1: {}, 1: {}}
        for D, k in (small if bound <= 400 else r4_of).items():
            if abs(D) <= bound:
                hist = want[1 if D > 0 else -1]
                hist[k] = hist.get(k, 0) + 1
        reports = survey.scan_r4_density(bound)
        assert [r.counts for r in reports] == [want[-1], want[-1], want[1], want[1]], bound


def test_density_walk_counts_its_redei_builds(monkeypatch):
    # at 2e5 the walk builds far fewer than the 121,588 Redei matrices of its
    # discriminants
    calls = 0
    kernel = classgroup._redei_rows

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(classgroup, "_redei_rows", counted)
    reports = survey.scan_r4_density(200000)
    assert sum(r.size for r in reports[::2]) == 121588
    assert 0 < calls <= 20000, calls


def test_density_scan_frees_its_primes_on_return():
    # the primes up to the bound go when the scan returns: no cache keeps
    # them, and no reference cycle waits for the collector
    cached = arith.sieve_primes.cache_info().currsize
    gc.collect()
    gc.disable()
    try:
        survey.scan_r4_density(3000)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert arith.sieve_primes.cache_info().currsize == cached


def test_density_empty_populations_pass():
    # below |D| = 3 there is no discriminant of either sign; at 4 none above 0
    for bound, empty in ((0, [True] * 4), (2, [True] * 4), (4, [False, False, True, True])):
        reports = survey.scan_r4_density(bound)
        assert [r.empty for r in reports] == empty
        for r in reports:
            if r.empty:
                assert r.passed and r.fraction is None and r.size == 0 and r.counts == {}
    code, out, _ = run_cli("density", "--max", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 and all(line.endswith("[empty]") for line in lines), out


def test_pmap_caps_workers_at_cpu_count(monkeypatch):
    # a huge --jobs must not ask for that many processes; the recorder
    # stands in for the pool and starts none
    asked = []

    class Recorder:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(survey.mp, "Pool", Recorder)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
    assert survey._pmap(abs, list(range(-10, 10)), 10**5) == [abs(x) for x in range(-10, 10)]
    assert asked == [2]
    monkeypatch.setattr(survey.os, "cpu_count", lambda: None)
    assert survey._pmap(abs, [-1, -2, -3, -4], 10**5) == [1, 2, 3, 4]
    assert asked == [2]  # an unknown core count runs in this process


@pytest.mark.parametrize("m", [1, 2, 5, 30, 41, 221, 365, 979])
def test_analyze_accepts_factored_m(m):
    for theta in (THETA_PI3, THETA_2PI3):
        assert survey.analyze(factor_squarefree(m), theta) == survey.analyze(m, theta)


def test_certification_scan_small():
    rep = survey.scan_certification("cor15", 300)
    assert rep.passed and rep.fraction == 1.0
    rep = survey.scan_certification("f5", 600)
    assert rep.size >= 3
    rep = survey.scan_certification("f5", 30)
    assert rep.empty and rep.passed


def test_cli_analyze_json():
    code, out, err = run_cli("analyze", "365", "--theta", "pi3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate_kind"] == cassels.KIND_THM71
    assert doc["s2"] == 2


def test_cli_analyze_not_squarefree_exit_64():
    code, out, err = run_cli("analyze", "12", "--theta", "pi3")
    assert code == 64
    assert "squarefree" in err


@pytest.mark.parametrize(
    "exc", [cassels.NotFound(64), descent.Undecided(17, 40)], ids=["NotFound", "Undecided"]
)
def test_cli_escalation_exit_3(monkeypatch, capsys, exc):
    # 221 = 13 * 17 is an F5 pairing input, so both commands reach the ternary search
    def escalate(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cassels, "solve_ternary", escalate)
    for command in ("analyze", "certify"):
        assert cli.main([command, "221", "--theta", "pi3"]) == cli.EX_UNDECIDED == 3
        assert capsys.readouterr().err.startswith("escalation: ")


def test_cli_usage_error_exit_64():
    cases = [
        (("analyze", "5"), None),
        (("survey", "--max", "-1"), None),
        (("density", "--max", "-1"), None),
        (("verify-parity", "--max", "-1"), None),
        (("certify", "-5", "--theta", "pi3"), None),
        (("analyze", "-5", "--theta", "pi3"), None),
        (("survey", "--max", "10"), {"THETA_SELMER_JOBS": "abc"}),
    ]
    for argv, env in cases:
        code, out, err = run_cli(*argv, env=env)
        assert code == 64, (argv, env, err)
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_cli_verify_parity():
    code, out, err = run_cli("verify-parity", "--max", "150")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_cli_verify_oracle():
    code, out, err = run_cli("verify-oracle", "--max", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []


def test_cli_certify_json():
    code, out, err = run_cli("certify", "221", "--theta", "pi3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == cassels.KIND_CASSELS


def test_cli_certify_large_semiprime():
    # 1000370001101 = 1000003 * 1000367, an F5 semiprime that needs a pairing
    code, out, err = run_cli("certify", "1000370001101", "--theta", "pi3")
    assert code == 0, err
    assert json.loads(out)["s2"] == 4


def test_certify_transcript_deterministic():
    code1, out1, _ = run_cli("certify", "221", "--theta", "pi3")
    code2, out2, _ = run_cli("certify", "221", "--theta", "pi3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_survey_csv_deterministic():
    code1, out1, _ = run_cli("survey", "--max", "40")
    code2, out2, _ = run_cli("survey", "--max", "40", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == ",".join(survey.CSV_FIELDS)


def test_cli_density_json_unchanged():
    # the r4 histograms over |D| <= 2e5, frozen before the Redei rows were
    # read off the pairwise Legendre table
    code, out, _ = run_cli("density", "--max", "200000", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b97154b2cbdf8478173ea561b3e1473731153b4054d48f579845ec5ef9c2e240"
    )


def test_cli_survey_csv_unchanged():
    # frozen before the Monsky rows were packed from compiled templates
    code, out, _ = run_cli("survey", "--max", "3000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7355a35558b8ea593418b3bca7685c8774a9dc4d36d01f692587846a77126e44"
    )


def test_cli_survey_json_unchanged():
    code, out, _ = run_cli(
        "survey", "--max", "2000", "--certificates", "--oracle-max", "300", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "47095e6ab15be11854873126062a8740f1ce0cc568cdc2f896151551f033c7ca"
    )


def test_cli_parser_rejects_bad_theta():
    code, out, err = run_cli("analyze", "5", "--theta", "pi4")
    assert code == 64


def test_verify_oracle_checks_t_at_most_4(monkeypatch, capsys):
    # 85085 = 5 * 7 * 11 * 13 * 17 is the first m with t = 5, past the
    # oracle's enumeration; 85079 and 85083 have t = 2
    monkeypatch.setattr(survey, "factor_range", lambda limit: (
        factor_squarefree(m) for m in (85079, 85083, 85085)))
    monkeypatch.delenv("THETA_SELMER_JOBS", raising=False)
    failures, triples = survey.scan_oracle(85085)
    assert failures == [] and [n for n, _, _ in triples] == [85079, -85079, 85083, -85083]
    assert cli.main(["verify-oracle", "--max", "85085"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checked"] == 4 and doc["failures"] == []


def _report_shape(report):
    return report.size, report.counts, report.fraction, report.passed, report.empty


@pytest.mark.parametrize("bound", [-5, -4, -3, -2, -1])
def test_range_scans_give_bound_zero_results_below_zero(bound):
    assert list(factor_range(bound)) == []
    assert survey.survey_range(bound) == survey.survey_range(0) == []
    report, failures, rows = survey.scan_parity(bound)
    zero, _, _ = survey.scan_parity(0)
    assert failures == rows == [] and _report_shape(report) == _report_shape(zero)
    assert survey.scan_oracle(bound) == survey.scan_oracle(0) == ([], [])
    for family in ("f5", "f11", "cor15", "cor16"):
        assert (_report_shape(survey.scan_certification(family, bound))
                == _report_shape(survey.scan_certification(family, 0)))
    assert ([_report_shape(r) for r in survey.scan_r4_density(bound)]
            == [_report_shape(r) for r in survey.scan_r4_density(0)])


def test_verify_oracle_reports_a_monsky_mismatch(monkeypatch, capsys):
    # zeroing row 2 of M_7 lowers its rank: the matrix then claims s2 = 3
    # where the oracle finds 2, and the 4 classes of the larger kernel
    # outside Sel_2 are the disagreement
    build = monsky.build_monsky

    def broken(n, table=None):
        mm = build(n, table)
        if mm.n.value != 7:
            return mm
        rows = list(mm.matrix.rows)
        rows[2] = 0
        return monsky.MonskyMatrix(mm.n, mm.template,
                                   BitMatrix(mm.matrix.nrows, mm.matrix.ncols, tuple(rows)))

    monkeypatch.setattr(monsky, "build_monsky", broken)
    monkeypatch.delenv("THETA_SELMER_JOBS", raising=False)
    assert cli.main(["verify-oracle", "--max", "10"]) == cli.EX_VERIFY == 2
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert (failure["n"], failure["s2"], failure["oracle_dim"]) == (7, 3, 2)
    sf = factor_squarefree(7)
    members, _ = descent.selmer_group_oracle(sf)
    oracle = {(lam.b1, lam.b2) for lam in members}
    matrix = broken(sf).matrix
    kernel = set()
    for bits in range(1 << matrix.ncols):
        v = BitVector(matrix.ncols, bits)
        if matrix.mul_vec(v).is_zero():
            lam = monsky.decode_vector(v, sf)
            kernel.add((lam.b1, lam.b2))
    listed = [tuple(d["lambda"]) for d in failure["detail"]]
    assert len(listed) == 4 and set(listed) == kernel ^ oracle
    # listed in ascending vector order, which pins the bytes of the report
    order = [monsky.encode_pair(b1, b2, sf).bits for b1, b2 in listed]
    assert order == sorted(order)
    for d in failure["detail"]:
        assert d["in_kernel"] == (tuple(d["lambda"]) not in oracle)
        if tuple(d["lambda"]) not in oracle:
            assert any(ok is False for _, ok in d["local_solvability"]), d


def test_survey_oracle_mismatch_exit_2(monkeypatch, capsys):
    # an oracle that reads two dimensions high disagrees with s2 at the
    # first row, n = 1; the typed error survives a worker's pickling
    real = descent.oracle_selmer_dimension
    monkeypatch.setattr(descent, "oracle_selmer_dimension", lambda n: real(n) + 2)
    argv = ["survey", "--max", "10", "--oracle-max", "10", "--jobs", "1"]
    assert cli.main(argv) == cli.EX_VERIFY == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.rstrip().endswith("at n=1"), err
    exc = pickle.loads(pickle.dumps(survey.OracleMismatch("at n=1")))
    assert isinstance(exc, survey.OracleMismatch) and exc.args == ("at n=1",)


def test_cli_certify_rate_unchanged(monkeypatch, capsys):
    # the four family scans of the removed scan_families script, whose output
    # test_scan_certification_unchanged froze
    monkeypatch.delenv("THETA_SELMER_JOBS", raising=False)
    assert cli.main(["certify-rate", "--max", "5000"]) == cli.EX_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == (
        "a9a1a653f1e9420fd6698b5296f07e060b19290ec08464b07c03a84d6876d855"
    )


def test_cli_certify_rate_bad_jobs_exit_64():
    code, out, err = run_cli("certify-rate", "--max", "10", env={"THETA_SELMER_JOBS": "abc"})
    assert code == 64 and out == ""
    assert "THETA_SELMER_JOBS" in err and "Traceback" not in err


def test_readme_cli_block_names_every_subcommand():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("theta-selmer ")}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)
