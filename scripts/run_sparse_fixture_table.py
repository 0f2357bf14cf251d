"""Table of solver behavior on Matrix Market fixtures with smooth priors.

For each fixture: build a sine-wave problem with 10% noise, rewrite it in
standard form through the smoothing regularizer, run PNTM, GBiT and CGLS
on it and map each solution back. Columns follow the relative discrepancy
/ error / residual convention; non-converged runs are marked with '*'.

Usage: python scripts/run_sparse_fixture_table.py [paths...]
"""

import argparse
from pathlib import Path

from tikmor import (
    GbitConfig,
    PntmConfig,
    RegularizationMatrix,
    cgls,
    gbit_solve,
    load_matrix_market,
    pntm_solve,
    priorconditioned_problem,
    relative_stats,
    sine_wave_problem,
)

DEFAULT_FIXTURES = sorted(
    str(p) for p in (Path(__file__).resolve().parent.parent / "tests" / "fixtures").glob("*.mtx")
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("paths", nargs="*", default=DEFAULT_FIXTURES)
    ap.add_argument("--noise", type=float, default=0.10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--inner-cap", type=int, default=1000)
    args = ap.parse_args()

    header = (f"{'matrix':<14s} {'m':>6s} {'n':>6s} {'rel.disc':>9s} | "
              f"{'PNTM res':>9s} {'err':>7s} {'#K':>4s} {'#N':>7s} | "
              f"{'GBiT res':>9s} {'err':>7s} {'#K':>4s} | "
              f"{'CGLS res':>9s} {'err':>7s} {'#K':>4s}")
    print(header)
    for path in args.paths:
        op = load_matrix_market(path)
        problem = sine_wave_problem(op, args.noise, args.seed)
        reg = RegularizationMatrix(op.cols)
        transformed, recover = priorconditioned_problem(problem, reg)

        p = pntm_solve(transformed, PntmConfig(inner_cap_large=args.inner_cap))
        sp = relative_stats(problem, recover(p.x))
        g = gbit_solve(transformed, GbitConfig())
        sg = relative_stats(problem, recover(g.x))
        c = cgls(transformed.operator, transformed.b, transformed.discrepancy_target,
                 max_iter=5000)
        sc = relative_stats(problem, recover(c.x))

        def mark(flag):
            return " " if flag else "*"

        name = Path(path).stem
        print(f"{name:<14s} {op.rows:>6d} {op.cols:>6d} {sp.rel_discrepancy:>9.4f} | "
              f"{sp.rel_residual:>8.4f}{mark(p.converged)} {sp.rel_error:>7.4f} "
              f"{p.n_outer:>4d} {p.n_inner_total:>7d} | "
              f"{sg.rel_residual:>8.4f}{mark(g.converged)} {sg.rel_error:>7.4f} {g.n_outer:>4d} | "
              f"{sc.rel_residual:>8.4f}{mark(c.converged)} {sc.rel_error:>7.4f} {c.n_iter:>4d}")


if __name__ == "__main__":
    main()
