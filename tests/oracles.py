"""Constructions that tests compare the library against.

``j_prime_echelon`` echelonizes the level component of J' = U(g) u' in
weight-space basis order.  The library holds J' only as the echelon of
``quotient_l_prime``, which pivots on the monomials with a W_{-p} factor
first, so a reduction or certificate checked here is checked against an
echelon it does not share.
"""

from vermatools import linalg
from vermatools.verma import weight_space_basis, word_images


def j_prime_echelon(M, p, level, uprime):
    """The images y u' of the PBW words y of degree level - p, echelonized
    in basis order; empty below level p."""
    order = {m: i for i, m in enumerate(weight_space_basis(level))}
    ech = linalg.Echelon(key=order.__getitem__)
    ech.extend(word_images(M, level - p, uprime))
    return ech


def in_j_prime(M, p, uprime, vec):
    """Whether the homogeneous vector vec lies in J'."""
    return vec.is_zero() or not j_prime_echelon(M, p, vec.level, uprime).reduce(dict(vec.terms))
