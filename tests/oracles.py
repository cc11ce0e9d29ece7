"""Constructions that tests compare the library against.

``j_prime_echelon`` echelonizes the level component of J' = U(g) u' in
weight-space basis order.  The library holds J' only as the echelon of
``quotient_l_prime``, which pivots on the monomials with a W_{-p} factor
first, so a reduction or certificate checked here is checked against an
echelon it does not share.

``elimination_product`` is the paper's closed form of the W(2,2) tensor
certificate, in plain Fractions; the library computes that certificate by
elimination and keeps no closed form of it.
"""

from fractions import Fraction
from math import prod

from vermatools import linalg
from vermatools.verma import WordWalker, weight_space_basis


def j_prime_echelon(M, p, level, uprime):
    """The images y u' of the PBW words y of degree level - p, echelonized
    in basis order; empty below level p."""
    order = {m: i for i, m in enumerate(weight_space_basis(level))}
    ech = linalg.Echelon(key=order.__getitem__)
    ech.extend(WordWalker(M, uprime).images(level - p).values())
    return ech


def in_j_prime(M, p, uprime, vec):
    """Whether the homogeneous vector vec lies in J'."""
    return vec.is_zero() or not j_prime_echelon(M, p, vec.level, uprime).reduce(dict(vec.terms))


def elimination_product(n, p, r, alpha, beta) -> Fraction:
    """lambda(n) = prod_{j=0}^{r-1} (n + (r - j) p - 1 + alpha + (1 - p) beta): the
    coefficient with which the subsingular vector of shape L_{-p}^r + ... carries
    v_{n + rp - 1} (x) v to v_{n-1} (x) v, modulo the higher indices."""
    return prod((Fraction(n + (r - j) * p - 1) + alpha + (1 - p) * beta for j in range(r)),
                start=Fraction(1))
