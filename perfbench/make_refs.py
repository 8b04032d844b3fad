"""Regenerate the reference norms of the user-norm workload.

    python3 perfbench/make_refs.py            # writes perfbench/user_norm_refs.json

Every reference is ||f||_{p,alpha} of a polynomial f, computed twice, apart
from the program and from each other:

* nested scipy ``quad``: the angular integral of |f(r e^it)|^p with
  breakpoints at the arguments of the zeros inside the disk, and the radial
  integral split at their moduli, with QUADPACK's QAWS carrying the
  (1-r)^alpha endpoint weight on the last piece;
* nested mpmath tanh-sinh quadrature at 20 digits, split at the same
  breakpoints.

A value is written only when the two agree to REL_AGREEMENT; otherwise the
command exits 1 and writes nothing.  The pool polynomials have every zero
at modulus 1.5 to 3, outside the closed disk; the fault polynomials have a
zero inside it, where the program's angular grids are known to be too coarse.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
from scipy import integrate

MASTER_SEED = 20200828
POOL_SIZE = 16
POOL_PS = (1.5, 3.0)
ALPHAS = (0.5, 1.0, 2.0)
REL_AGREEMENT = 1e-12
# interior-zero inputs at p = 1.5: (id, zeros, alpha)
FAULTS = (
    ("fault-half", (0.5 + 0.0j,), 1.0),
    ("fault-pair", (-0.4 + 0.3j, 1.8 - 0.2j), 2.0),
)
FAULT_P = 1.5
OUT = Path(__file__).resolve().parent / "user_norm_refs.json"


def coeffs_from_zeros(zeros) -> np.ndarray:
    """Ascending coefficients of prod (z - z_k), scaled to unit max modulus."""
    c = np.poly(np.asarray(zeros, dtype=complex))[::-1].astype(complex)
    return c / np.abs(c).max()


def pool_zeros(rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for _ in range(POOL_SIZE):
        degree = int(rng.integers(2, 9))
        mod = rng.uniform(1.5, 3.0, degree)
        arg = rng.uniform(0.0, 2.0 * math.pi, degree)
        out.append(mod * np.exp(1j * arg))
    return out


def _breakpoints(zeros):
    inside = [z for z in zeros if abs(z) < 1.0]
    radii = sorted({abs(z) for z in inside if abs(z) > 0.0})
    angles = sorted({math.atan2(z.imag, z.real) % (2.0 * math.pi)
                     for z in inside if abs(z) > 0.0})
    return radii, [a for a in angles if 0.0 < a < 2.0 * math.pi]


def norm_scipy(coeffs, zeros, p: float, alpha: float) -> float:
    desc = np.asarray(coeffs, dtype=complex)[::-1]
    radii, angles = _breakpoints(zeros)
    two_pi = 2.0 * math.pi

    def mean_angular(r: float) -> float:
        val, _ = integrate.quad(
            lambda t: abs(np.polyval(desc, r * complex(math.cos(t), math.sin(t)))) ** p,
            0.0, two_pi, points=angles or None, epsabs=0.0, epsrel=1e-13,
            limit=500)
        return val / two_pi

    edges = [0.0] + radii + [1.0]
    total = 0.0
    for a, b in zip(edges[:-2], edges[1:-1]):
        val, _ = integrate.quad(lambda r: (1.0 - r) ** alpha * r * mean_angular(r),
                                a, b, epsabs=0.0, epsrel=1e-13, limit=500)
        total += val
    val, _ = integrate.quad(lambda r: r * mean_angular(r), edges[-2], 1.0,
                            weight="alg", wvar=(0.0, alpha), epsabs=0.0,
                            epsrel=1e-13, limit=500)
    total += val
    return (2.0 * total) ** (1.0 / p)


def norm_mpmath(coeffs, zeros, p: float, alpha: float) -> float:
    mp = mpmath.mp
    cs = [mpmath.mpc(complex(c)) for c in coeffs][::-1]
    radii, angles = _breakpoints(zeros)
    pp = mpmath.mpf(p)
    al = mpmath.mpf(alpha)

    def absf_p(r, t):
        z = r * mpmath.expj(t)
        acc = mpmath.mpc(0)
        for c in cs:
            acc = acc * z + c
        return abs(acc) ** pp

    def mean_angular(r):
        pts = [mpmath.mpf(0)] + [mpmath.mpf(a) for a in angles] + [2 * mp.pi]
        return mpmath.quad(lambda t: absf_p(r, t), pts) / (2 * mp.pi)

    pts = [mpmath.mpf(0)] + [mpmath.mpf(r) for r in radii] + [mpmath.mpf(1)]
    total = mpmath.quad(lambda r: (1 - r) ** al * r * mean_angular(r), pts)
    return float((2 * total) ** (1 / pp))


def reference(coeffs, zeros, p: float, alpha: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        a = norm_scipy(coeffs, zeros, p, alpha)
    with mpmath.workdps(20):
        b = norm_mpmath(coeffs, zeros, p, alpha)
    gap = abs(a - b) / abs(b)
    print(f"  p={p} alpha={alpha}: scipy {a!r} mpmath {b!r} gap {gap:.2e}",
          flush=True)
    if not gap <= REL_AGREEMENT:
        raise SystemExit(f"references disagree by {gap:.3e} > {REL_AGREEMENT:g}; "
                         "nothing written")
    return b


def _pairs(values):
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def main() -> int:
    rng = np.random.default_rng(MASTER_SEED)
    pool = []
    for k, zeros in enumerate(pool_zeros(rng)):
        coeffs = coeffs_from_zeros(zeros)
        print(f"pool {k}: degree {len(coeffs) - 1}", flush=True)
        refs = {str(p): {str(a): reference(coeffs, zeros, p, a) for a in ALPHAS}
                for p in POOL_PS}
        pool.append({"id": f"pool-{k:02d}", "zeros": _pairs(zeros),
                     "coeffs": _pairs(coeffs), "refs": refs})
    faults = []
    for name, zeros, alpha in FAULTS:
        coeffs = coeffs_from_zeros(zeros)
        print(f"{name}: degree {len(coeffs) - 1}", flush=True)
        faults.append({"id": name, "zeros": _pairs(zeros),
                       "coeffs": _pairs(coeffs), "p": FAULT_P, "alpha": alpha,
                       "ref": reference(coeffs, zeros, FAULT_P, alpha)})
    doc = {
        "generated_by": "perfbench/make_refs.py",
        "master_seed": MASTER_SEED,
        "rel_agreement": REL_AGREEMENT,
        "pool": pool,
        "faults": faults,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
