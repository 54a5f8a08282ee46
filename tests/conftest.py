"""Shared system builders used across the test modules, and the symbolic
coupling that the hodograph tests take as their oracle.

The systems are constructed directly (not loaded from the shipped
configuration library) so the tests pin the definitions independently.
"""

from hydrobrackets.expr import differentiate
from hydrobrackets.system import Box, SystemDef


def symbolic_coupling(sys, nu, mu):
    """a[nu][mu] = d_mu v^nu / (v^mu - v^nu) as an expression tree built by
    `differentiate`: the oracle of `hodograph`'s coupling from the jets."""
    return (differentiate(sys.v_diag[nu], sys.coords[mu])
            / (sys.v_diag[mu] - sys.v_diag[nu]))


def canonical_system(n=2):
    """Constant identity metric, zero lower-order coefficients."""
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    zeros = [[["0"] * n for _ in range(n)] for _ in range(n)]
    return SystemDef([f"U{i+1}" for i in range(n)], g_upper=eye, b=zeros,
                     box=Box((-1.0,) * n, (1.0,) * n), name="canonical")


def polar_pair_system(with_b=True):
    """Flat plane metric in polar-style curvilinear coordinates."""
    g = [["1", "0"], ["0", "1/r^2"]]
    b = None
    if with_b:
        b = [[["0", "0"], ["0", "-1/r"]],
             [["0", "1/r"], ["-1/r^3", "0"]]]
    return SystemDef(["r", "th"], g_upper=g, b=b,
                     box=Box((0.5, -1.0), (2.5, 1.5)), name="polar-plane")


def sphere_system(with_b=False, with_identity_affinor=False):
    """Unit-sphere metric; optional matching b and identity affinor."""
    g = [["1", "0"], ["0", "1/sin(th)^2"]]
    b = None
    if with_b:
        b = [[["0", "0"], ["0", "-cos(th)/sin(th)"]],
             [["0", "cos(th)/sin(th)"], ["-cos(th)/sin(th)^3", "0"]]]
    affinors = None
    if with_identity_affinor:
        affinors = [(1.0, [["1", "0"], ["0", "1"]])]
    return SystemDef(["th", "ph"], g_upper=g, b=b, affinors=affinors,
                     box=Box((0.4, 0.0), (2.7, 3.0)), name="unit-sphere")


def shallow_water_system():
    """Mass/velocity form of the shallow water equations."""
    return SystemDef(["h", "u"], V=[["u", "h"], ["g0", "u"]],
                     params={"g0": 1.0},
                     box=Box((0.5, -1.0), (2.0, 1.0)), name="shallow-water")


def shallow_water_riemann_system():
    """Shallow water in its Riemann-invariant chart."""
    return SystemDef(["R1", "R2"],
                     v_diag=["(3*R1 + R2)/4", "(3*R2 + R1)/4"],
                     box=Box((1.0, 3.0), (2.0, 4.0)),
                     name="shallow-water-riemann")


def epsilon_system():
    """Three-component diagonal system with velocities summing the others."""
    return SystemDef(["R1", "R2", "R3"],
                     v_diag=["R2 + R3", "R1 + R3", "R1 + R2"],
                     box=Box((0.1, 1.1, 2.1), (0.9, 1.9, 2.9)),
                     name="epsilon-3")


def hopf_system():
    """Single scalar conservation law with velocity equal to the field."""
    return SystemDef(["u"], g_upper=[["1"]], b=[[["0"]]], v_diag=["u"],
                     box=Box((0.2,), (2.0,)), name="hopf")


def so3_system():
    """Ultralocal bracket with rotation-algebra structure constants."""
    zeros3 = [["0"] * 3 for _ in range(3)]
    return SystemDef(["U1", "U2", "U3"],
                     g_upper=zeros3,
                     h_ultra=[["0", "U3", "-U2"],
                              ["-U3", "0", "U1"],
                              ["U2", "-U1", "0"]],
                     box=Box((-1.0,) * 3, (1.0,) * 3), name="so3")
