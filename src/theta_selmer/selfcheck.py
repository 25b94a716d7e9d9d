"""Erratum probes: places where the source material is internally
inconsistent or disagrees with ground truth.  Everything here is
informational; findings are data, not build failures.
"""

from __future__ import annotations

from . import cassels, classgroup, descent, monsky, survey
from .arith import factor_squarefree, legendre_additive
from .monsky import TwoCoverClass


def probe_2adic_tables(sample_n=(41, 73, 97)) -> dict:
    """The overview table and the eta=1 theorem proof print two versions
    of the 2-adic solvability condition for gcd(6,n)=1, ntilde = 1 mod 8;
    the descent oracle arbitrates both over all sign/2/3 support patterns.
    """
    table_a_mismatches = []
    table_b_mismatches = []
    checked = 0
    for n in sample_n:
        sf = factor_squarefree(n)
        if sf.eta != 1 or sf.ntilde % 8 != 1:
            raise AssertionError(f"sample n={n} is not eta = 1, ntilde = 1 mod 8")
        for bits in range(64):
            g = [(bits >> i) & 1 for i in range(6)]
            b1 = (-1) ** g[0] * 2 ** g[1] * 3 ** g[2]
            b2 = (-1) ** g[3] * 2 ** g[4] * 3 ** g[5]
            curve = descent.curve_for(sf, TwoCoverClass(b1, b2))
            oracle = descent.locally_solvable(curve, 2)
            checked += 1
            # version printed in the overview section
            if b2 % 2:
                va = b1 % 2 == 1 and (b1 % 8, b2 % 4) in ((1, 1), (5, 3))
            else:
                va = b1 % 2 == 1 and (b1 % 8, b2 % 8) in ((7, 6), (3, 2))
            # version printed in the eta=1 proof
            if b1 % 2 == 1 and b2 % 2 == 1:
                vb = (b1 % 8, b2 % 8) in ((1, 1), (1, 5), (5, 7), (5, 3))
            elif b1 % 2 == 1 and b2 % 2 == 0:
                vb = (b1 % 8, (b2 // 2) % 4) in ((7, 3), (3, 1))
            else:
                vb = False
            if va != oracle:
                table_a_mismatches.append({"n": n, "lambda": [b1, b2],
                                           "table": va, "oracle": oracle})
            if vb != oracle:
                table_b_mismatches.append({"n": n, "lambda": [b1, b2],
                                           "table": vb, "oracle": oracle})
    return {
        "probe": "2adic tables (overview vs eta=1 proof) against the oracle",
        "patterns_checked": checked,
        "overview_table_mismatches": table_a_mismatches[:8],
        "overview_mismatch_count": len(table_a_mismatches),
        "proof_table_mismatches": table_b_mismatches[:8],
        "proof_mismatch_count": len(table_b_mismatches),
    }


def probe_f19_routes(max_n: int = 4000) -> dict:
    """Closed form / linear system vs the raw local sum on the
    n = 19 mod 24, r4 = 1 family; also the two printed closed forms."""
    by_class: dict[str, list[int]] = {}
    first_vs_final = []
    scanned = []
    for rec in cassels.family_members(cassels.FAMILY_F19, max_n):
        n = rec.m.value
        val, ev = cassels.pairing_f19(rec)
        scanned.append(n)
        key = str(tuple(ev["d_class_mod8"]))
        by_class.setdefault(key, []).append(int(ev["closed_form_agrees"]))
        if ev["routes"]["first_closed_form"] != ev["routes"]["closed_form"]:
            first_vs_final.append(n)
    summary = {
        k: {"instances": len(v), "closed_form_agrees_with_local_sum": sum(v)}
        for k, v in sorted(by_class.items())
    }
    return {
        "probe": "Cassels routes for the r4=1, n=19 mod 24 family",
        "instances": scanned,
        "agreement_by_{d,n/d}_mod_8": summary,
        "first_vs_final_closed_form_differ_at": first_vs_final,
        "note": "rational points on the covers (n = 979, n = 1771) prove the "
                "local sum is the true pairing where the routes disagree",
    }


def probe_pq_criterion(max_n: int = 6000) -> dict:
    """[beta/q] (the printed criterion) vs the true pairing."""
    out = {}
    for family in (cassels.FAMILY_F5, cassels.FAMILY_F11):
        agree = total = 0
        mismatches = []
        sign_fixes = []
        for rec in cassels.family_members(family, max_n):
            m = rec.m.value
            if legendre_additive(*rec.pq) != 0:
                continue
            val, ev = cassels.pairing_pq(*rec.pq, family, _analysis=rec)
            total += 1
            if ev["beta_criterion_agrees"]:
                agree += 1
            else:
                mismatches.append(m)
            if ev["lambda_prime"] != ev["recipe_lambda_prime"]:
                sign_fixes.append(m)
        out[family] = {
            "instances": total,
            "beta_criterion_agrees": agree,
            "beta_criterion_mismatch_at": mismatches[:12],
            "second_argument_sign_corrected_at": sign_fixes[:12],
            "sign_corrections": len(sign_fixes),
        }
    out["probe"] = "pq-family [beta/q] criterion vs the local-sum pairing"
    return out


def probe_fk_formula() -> dict:
    """The remark says 14.43% for positive discriminants but the displayed
    k-formula gives 2*C at k=0; both recorded along with small-range data."""
    c = survey.fk_density(0, -1)
    reports = survey.scan_r4_density(50000)
    return {
        "probe": "Fouvry-Kluners density formula vs remark vs finite-range data",
        "remark_negative_k0": round(c, 6),
        "remark_positive_k0": round(c / 2, 6),
        "formula_positive_k0": round(survey.fk_density(0, +1), 6),
        "empirical_at_5e4": {
            r.population: None if r.fraction is None else round(r.fraction, 4)
            for r in reports
        },
        "note": "finite ranges sit far above the asymptotic densities "
                "(loglog convergence), so the acceptance targets derived "
                "from the remark are not reachable at desk scale",
    }


def probe_r8_oracle(max_n: int = 4000) -> dict:
    """Cor 6.5's r8 criterion (solvability of A u = r_c) against the
    reduced-forms oracle's 8-rank."""
    checked = []
    mismatches = []
    for rec in cassels.family_members(cassels.FAMILY_F19, max_n):
        sf, n = rec.m, rec.m.value
        blocks = monsky.build_blocks(sf)
        d_star, _ = classgroup.splitting_divisor(blocks)
        sol = cassels.solve_ternary("4c2=da2+(n/d)b2", (d_star, sf))
        r8_linear = classgroup.r8_decision(blocks, d_star, sol.c)
        r8_forms = classgroup.forms_class_group(-n).r8
        checked.append(n)
        if r8_linear != r8_forms:
            mismatches.append({"n": n, "linear": r8_linear, "forms": r8_forms})
    return {
        "probe": "r8 criterion (Kolster path) vs reduced-forms oracle",
        "instances": len(checked),
        "mismatches": mismatches,
    }


def run_all(max_n: int = 3000) -> dict:
    return {
        "schema": survey.SCHEMA_VERSION,
        "probes": [
            probe_2adic_tables(),
            probe_f19_routes(max_n=max_n),
            probe_pq_criterion(max_n=max_n),
            probe_fk_formula(),
            probe_r8_oracle(max_n=max_n),
        ],
    }
