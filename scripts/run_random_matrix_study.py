"""Random-matrix study: iteration counts and final alpha under both step rules.

Runs the full-space Newton solver on seeded 700x500 uniform problems
with 10% noise and reports mean/sd of iteration counts and alpha, the
layout used for step-rule comparisons throughout this project.

Usage: python scripts/run_random_matrix_study.py [--reps 20] [--m 700] [--n 500]
"""

import argparse
import time

import numpy as np

from tikmor import NtmConfig, StepRule, ntm_solve, random_uniform_problem


def sd(a):
    # sample standard deviation; 0.0 for a single run, as in summary.csv
    return float(a.std(ddof=1)) if a.size > 1 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--m", type=int, default=700)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--noise", type=float, default=0.10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()

    results = {"case1": [], "case2": []}
    t0 = time.time()
    for rep in range(args.reps):
        problem = random_uniform_problem(args.m, args.n, args.noise, args.seed + rep)
        for variant in ("case1", "case2"):
            cfg = NtmConfig(step_rule=StepRule(variant=variant))
            res = ntm_solve(problem, cfg)
            results[variant].append((res.n_iter, res.alpha, res.converged))

    print(f"{args.reps} runs of {args.m}x{args.n}, {args.noise:.0%} noise "
          f"({time.time() - t0:.1f}s)")
    print(f"{'rule':8s} {'iters (sd)':>16s} {'alpha (sd)':>20s} {'converged':>10s}")
    for variant, rows in results.items():
        iters = np.array([r[0] for r in rows], dtype=float)
        alphas = np.array([r[1] for r in rows])
        n_conv = sum(r[2] for r in rows)
        print(f"{variant:8s} {iters.mean():8.1f} ({sd(iters):4.1f}) "
              f"{alphas.mean():12.4f} ({sd(alphas):6.4f}) {n_conv:>6d}/{len(rows)}")


if __name__ == "__main__":
    main()
