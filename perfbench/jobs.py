"""Library jobs of the `special` workload.

Each job takes its inputs from the seeded op list and returns a report dict
with a "pass" verdict and every value it computed, so that hashing the report
checks the values as well as the verdict.  Functions are looked up through
their modules at call time, so the wrappers the traced run installs see every
call.  Tolerances are those of the acceptance suite.
"""

import math

from qspace3 import QContext
from qspace3 import basistrans as bt
from qspace3 import qspecial as qs

IDENTITY_TOL = 1e-10     # criterion 2
ORTHO_TOL = 1e-8         # criterion 3
COMPLETE_TOL = 1e-5      # criterion 4
TRANSFORM_TOL = 1e-6     # the transform verb's default
TABLE_TOL = 1e-6         # direct sum against the recurrence table


def identities(job):
    """The criterion-2 grid: recurrence and q-difference residuals for
    l <= 8 at the lattice points n = -10..0 of both signs."""
    q = job["q"]
    ctx = QContext(q=q)
    worst_r = worst_d = 0.0
    for l in range(9):
        for m in range(l + 1):
            for n in range(-10, 1):
                for sigma in (1, -1):
                    x = sigma * q**(2 * (n - m - 1))
                    worst_r = max(worst_r, qs.check_recurrence(l, m, x, ctx))
                    worst_d = max(worst_d, qs.check_difference(l, m, x, ctx))
    return {"worst_recurrence": worst_r, "worst_difference": worst_d,
            "pass": worst_r < IDENTITY_TOL and worst_d < IDENTITY_TOL}


def pointwise(job):
    """p_lm, p_tilde and weight_w at seeded points, with p_tilde checked
    against the three-term-recurrence table at the same point."""
    q = job["q"]
    ctx = QContext(q=q)
    points = [(p["l"], p["m"], p["sigma"] * q**(2 * (p["n"] - p["m"] - 1)))
              for p in job["lattice"]]
    points += [(p["l"], p["m"], p["u"] * q**(-2 * p["m"]))
               for p in job["offlattice"]]
    values = []
    worst = 0.0
    finite = True
    weight_nonfinite = 0
    for l, m, x in points:
        p = qs.p_lm(l, m, x, ctx)
        pt = qs.p_tilde(l, m, x, ctx)
        w = qs.weight_w(l, m, x, ctx)
        tab = qs.p_tilde_table(l, m, x, ctx)[l]
        finite = finite and math.isfinite(p) and math.isfinite(pt)
        weight_nonfinite += not math.isfinite(w)
        ref = abs(pt) if pt != 0 else 1.0
        worst = max(worst, abs(pt - tab) / ref)
        values.append([l, m, x, p, pt, tab])
    return {"worst_table_rel": worst, "weight_w_nonfinite": weight_nonfinite,
            "values": values, "pass": finite and worst < TABLE_TOL}


def sums(job):
    """Orthonormality sums, the completeness profile and the l -> X3 basis
    transform."""
    q = job["q"]
    ctx = QContext(q=q)
    m0 = job["m_ortho"]
    worst_o = 0.0
    for l in range(m0, m0 + 4):
        for lp in range(l, m0 + 4):
            s = qs.orthonormality_sum(l, lp, m0, ctx, n_min=-60)
            worst_o = max(worst_o, abs(s - (1.0 if l == lp else 0.0)))
    complete, transform = [], []
    ok = worst_o < ORTHO_TOL
    for m in job["m"]:
        rep = bt.completeness_check(m, ctx, l_max=40)
        table = bt.build_transform(2, m, ctx)
        complete.append(rep["max_defect"])
        transform.append([table.gram_defect, table.congruence_defect])
        ok = ok and rep["max_defect"] < COMPLETE_TOL \
            and table.gram_defect < TRANSFORM_TOL \
            and table.congruence_defect < TRANSFORM_TOL
    return {"worst_ortho": worst_o, "completeness_defect": complete,
            "transform_gram_congruence": transform, "pass": ok}


JOBS = {"identities": identities, "pointwise": pointwise, "sums": sums}
