"""Structure constants for W(2,2) and the twisted Heisenberg-Virasoro algebra.

W(2,2) has basis {L_n, W_n : n in Z} plus one central element C:

    [L_n, L_m] = (n-m) L_{n+m} + delta_{n,-m} (n^3-n)/12 C
    [L_n, W_m] = (n-m) W_{n+m} + delta_{n,-m} (n^3-n)/12 C
    [W_n, W_m] = 0

The twisted Heisenberg-Virasoro algebra has basis {L_n, I_n} plus three
central elements C_L, C_LI, C_I:

    [L_n, L_m] = (n-m) L_{n+m} + delta_{n,-m} (n^3-n)/12 C_L
    [L_n, I_m] = -m I_{n+m} - delta_{n,-m} (n^2+n) C_LI
    [I_n, I_m] = n delta_{n,-m} C_I

Brackets for the opposite factor order are defined by antisymmetry; the
central terms above are cocycles, not symmetric functions of (n, m), so
swapping factors negates the whole right-hand side rather than swapping
mode labels.  Central charges stay symbolic here: they are Generators
until a highest weight evaluates them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

W22 = "w22"
HV = "hv"

_CENTRAL = {"C", "CL", "CI", "CLI"}
_FAMILIES = {
    W22: ("L", "W", "C"),
    HV: ("L", "I", "CL", "CI", "CLI"),
}
_TEXT = {"C": "C", "CL": "C_L", "CI": "C_I", "CLI": "C_LI"}


class Generator(namedtuple("Generator", "family mode")):
    """A basis element, moded L/W/I or central; equal to (family, mode)."""

    __slots__ = ()

    def __new__(cls, family: str, mode: int = 0):
        if family in _CENTRAL and mode != 0:
            raise ValueError(f"central generator {family} carries no mode")
        return super().__new__(cls, family, mode)

    def is_central(self) -> bool:
        return self.family in _CENTRAL

    def __repr__(self):
        if self.is_central():
            return _TEXT[self.family]
        return f"{self.family}({self.mode})"


def L(n: int) -> Generator:
    return Generator("L", n)


def W(n: int) -> Generator:
    return Generator("W", n)


def I(n: int) -> Generator:
    return Generator("I", n)


C = Generator("C")
C_L = Generator("CL")
C_I = Generator("CI")
C_LI = Generator("CLI")


def check_generator(g: Generator, kind: str) -> None:
    if g.family not in _FAMILIES[kind]:
        raise ValueError(f"generator {g} does not belong to algebra {kind}")


def second_family(kind: str) -> str:
    """The family paired with L: "W" for W(2,2), "I" for the twisted algebra."""
    return _FAMILIES[kind][1]


# A LieCombo, the result of a bracket, is a list of (Generator, coefficient)
# pairs with nonzero coefficients: ints, except the central term
# (n^3 - n)/12 of an [L, L] or [L, W] bracket, which is a Fraction.
LieCombo = list


def bracket(a: Generator, b: Generator, kind: str) -> LieCombo:
    check_generator(a, kind)
    check_generator(b, kind)
    if a.is_central() or b.is_central():
        return []
    n, m = a.mode, b.mode
    fa, fb = a.family, b.family
    if fa != "L" and fb == "L":  # [X_n, L_m] = -[L_m, X_n]
        return [(g, -c) for g, c in bracket(b, a, kind)]
    if fa == "I" and fb == "I":
        return [(C_I, n)] if n == -m and n != 0 else []
    if fa == "W":  # [W_n, W_m] = 0
        return []
    out = []
    if fb == "I":
        if m != 0:
            out.append((Generator("I", n + m), -m))
        if n == -m and n * n + n != 0:
            out.append((C_LI, -(n * n + n)))
        return out
    # [L_n, X_m] for X = L or W: the Virasoro formula with X in place of L
    if n != m:
        out.append((Generator(fb, n + m), n - m))
    if n == -m and n != 0:
        out.append((C if kind == W22 else C_L, Fraction(n**3 - n, 12)))
    return out
