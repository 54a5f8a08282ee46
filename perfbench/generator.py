"""Seeded generator of diagonal constant-curvature metrics with known answers.

Each generated system has coordinates ``u1..uN`` and the contravariant metric

    g^{ii} = (1 + c/4 * sum_k phi_k(u_k)^2)^2 / phi_i'(u_i)^2,

the metric ``sum_i dy_i^2 / (1 + c/4 |y|^2)^2`` of constant curvature ``c``
pulled back through ``y_i = phi_i(u_i)``.  Each ``phi_i`` is one of
``u + a*u^3``, ``exp(a*u)/a`` or ``u``.  The known answer is ``DN_FLAT``
when ``c = 0`` and ``MF_CONST_CURV`` with constant ``c`` otherwise.  The
box keeps ``phi_i'`` and the conformal factor bounded away from zero for
every choice the generator can make.
"""

from __future__ import annotations

import numpy as np

# One session: (N, curved?, phi kinds).  The seed draws the coefficients,
# the curvature constant of the curved members and the order of the kinds,
# but never the shape of the work, so every seed costs about the same.
SESSION = (
    (2, False, ("cubic", "exp")),
    (2, True, ("cubic", "exp")),
    (3, True, ("cubic", "exp", "identity")),
    (4, True, ("cubic", "exp", "identity", "cubic")),
)
CURVATURES = (0.5, 1.0, 2.0, -0.1)
BOX = (0.1, 0.6)


def _phi(kind, u, a):
    """Source of phi(u) and phi'(u) for one coordinate."""
    if kind == "cubic":
        return f"({u} + {a!r}*{u}^3)", f"(1 + {3 * a!r}*{u}^2)"
    if kind == "exp":
        return f"(exp({a!r}*{u})/{a!r})", f"exp({a!r}*{u})"
    return u, "1"


def metric_doc(name, n, c, kinds, coeffs):
    """Config document of one generated metric (see the module docstring)."""
    coords = [f"u{i + 1}" for i in range(n)]
    phis = [_phi(k, u, a) for k, u, a in zip(kinds, coords, coeffs)]
    factor = "(1 + c/4*(" + " + ".join(f"{p}^2" for p, _ in phis) + "))^2"
    g = [["0"] * n for _ in range(n)]
    for i, (_, dphi) in enumerate(phis):
        g[i][i] = f"{factor}/{dphi}^2"
    return {
        "name": name,
        "coords": coords,
        "params": {"c": c},
        "g_upper": g,
        "box": {"min": [BOX[0]] * n, "max": [BOX[1]] * n},
    }


def generate(seed):
    """The systems of one session, each with its known answer.

    Returns a list of ``(doc, expected)`` where ``expected`` holds the
    verdict and the curvature constant the metric was built with.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k, (n, curved, kinds) in enumerate(SESSION):
        c = CURVATURES[int(rng.integers(len(CURVATURES)))] if curved else 0.0
        kinds = [kinds[i] for i in rng.permutation(n)]
        coeffs = [round(float(rng.uniform(0.5, 1.5)), 3) for _ in range(n)]
        doc = metric_doc(f"generated-s{seed}-{k}", n, c, kinds, coeffs)
        verdict = "MF_CONST_CURV" if curved else "DN_FLAT"
        out.append((doc, {"verdict": verdict, "curvature": c}))
    return out

