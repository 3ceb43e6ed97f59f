#!/usr/bin/env python3
"""Compare the full tensor flow against the scalar conformal-factor reduction.

Starting from ``sigma(0) g`` with ``g`` a reference metric on a chosen
geometry, the tensor flow stays inside the conformal family exactly when the
right-hand side is a multiple of the metric along the whole trajectory.  This
script integrates both the 3x3 flow and the scalar reduction and reports

* the largest anisotropy of the evolving metric (departure from the family),
* the relative gap between the metric scale and the scalar solution,
* the gap between the two torsion densities.

The flat base agrees for every coupling, any base agrees at zero coupling,
and the isotropic compact case leaves the conformal family once the coupling
is switched on.  Every metric on ``hyperbolic`` is Einstein, so its tensor
run takes :func:`hetflow.het_flow.integrate_flow`'s Einstein path: it
integrates the one scale of ``g = sigma g0`` and has no anisotropy by
construction; the scale gap there compares that path with the ``negative``
reduction.  Run e.g.::

    python3 scripts/flow_vs_scale_reduction.py --geometry flat --kappa 1.0 --mu 0.9
    python3 scripts/flow_vs_scale_reduction.py --geometry su2 --kappa 1.0
"""

import argparse
import csv
import math
import sys

import numpy as np

from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import homothety as ht

GEOMETRIES = {
    # geometry -> (algebra builder, scalar-reduction case)
    "flat": (lambda: hg.catalog("r3"), "flat"),
    "round": (
        lambda: hg.from_milnor([math.sqrt(2.0 / 3.0)] * 3, name="round"),
        "positive",
    ),
    "hyperbolic": (
        lambda: hg.catalog("hyperbolic", c=1.0 / math.sqrt(6.0)),
        "negative",
    ),
    "su2": (lambda: hg.catalog("su2", kappa=1.0), "su2"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--geometry", default="flat", choices=sorted(GEOMETRIES))
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=0.9,
                        help="initial torsion density (ignored for su2)")
    parser.add_argument("--t-end", type=float, default=0.5)
    parser.add_argument("--n-points", type=int, default=33)
    parser.add_argument("--out", default=None,
                        help="optional CSV of both trajectories")
    args = parser.parse_args(argv)

    make_algebra, case = GEOMETRIES[args.geometry]
    mu = 0.0 if args.geometry == "su2" else args.mu
    state = hf.FlowState3(algebra=make_algebra(), g=np.eye(3), f=mu)
    tensor = hf.integrate_flow(
        state,
        hf.FlowParams(kappa=args.kappa, t_span=(0.0, args.t_end),
                      n_points=args.n_points),
    )
    scalar = ht.integrate(
        ht.HomothetyProblem(case=case, kappa=args.kappa, mu=mu),
        (0.0, args.t_end),
        n_points=args.n_points,
    )

    m = min(tensor.t.size, scalar.t.size)
    worst_aniso = worst_sigma = worst_f = 0.0
    rows = [["t", "scale_tensor", "scale_scalar", "anisotropy", "f_tensor", "f_scalar"]]
    for i in range(m):
        g = tensor.g[i]
        aniso = float(np.max(np.abs(g - g[0, 0] * np.eye(3))))
        sigma_gap = abs(g[0, 0] - scalar.sigma[i]) / abs(scalar.sigma[i])
        worst_aniso = max(worst_aniso, aniso)
        worst_sigma = max(worst_sigma, sigma_gap)
        worst_f = max(worst_f, abs(tensor.f[i] - scalar.f[i]))
        rows.append([f"{tensor.t[i]:.8g}", f"{g[0, 0]:.12g}",
                     f"{scalar.sigma[i]:.12g}", f"{aniso:.6e}",
                     f"{tensor.f[i]:.12g}", f"{scalar.f[i]:.12g}"])

    print(f"geometry={args.geometry} kappa={args.kappa} mu={mu} "
          f"t_end={args.t_end} (tensor status: {tensor.status}, "
          f"scalar status: {scalar.status})")
    print(f"worst anisotropy          : {worst_aniso:.3e}")
    print(f"worst relative scale gap  : {worst_sigma:.3e}")
    print(f"worst torsion-density gap : {worst_f:.3e}")
    conformal = worst_aniso <= 1e-8
    print("the tensor flow "
          + ("stays in the conformal family here; the scalar reduction is exact"
             if conformal else
             "leaves the conformal family here; the scalar reduction does not apply"))

    if args.out:
        with open(args.out, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        print(f"wrote {m} samples to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
