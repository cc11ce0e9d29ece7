"""Subsingular vectors above the classify level budget, pinned to
tests/data/deep_vectors.json.

Each vector is the exact solve at h_W = 1 (c = -24/(p^2 - 1), h at its
necessary value).  The test runs no solver: it loads each vector onto a
fresh module, certifies that every raising image lies in J', and checks
its shape.  A change meant to alter these vectors rewrites the file with

    PYTHONPATH=src python tests/test_deep_vectors.py

and the diff of the file shows what changed.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vermatools import verma
from vermatools.pbw import HighestWeight, ModuleContext, ModuleVector, PBWMonomial
from vermatools.scalar import PolyContext

PINNED = Path(__file__).resolve().parent / "data" / "deep_vectors.json"

POINTS = [(6, 2), (2, 6), (7, 2), (2, 7)]


def module(p, r):
    hw = HighestWeight.w22(PolyContext(()), c=Fraction(-24, p * p - 1),
                           h=verma.necessary_h(p, r, Fraction(1)), hW=1)
    return ModuleContext(hw)


def _key(p, r):
    return f"p={p},r={r}"


def _recorded() -> dict:
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_every_point():
    assert set(_recorded()) == {_key(p, r) for p, r in POINTS}


@pytest.mark.parametrize("p,r", POINTS)
def test_pinned_vector_is_subsingular(p, r):
    M = module(p, r)
    u = ModuleVector.from_json(M, _recorded()[_key(p, r)])
    assert u.level == r * p
    assert u.coeff(PBWMonomial.make(l=(p,) * r)) == M.scalar_ctx.one
    assert all(p not in m.w and len(m.l) <= r for m in u.terms)
    assert verma._certify_subsingular(M, p, r, u)


def _dump(vectors: dict) -> str:
    """JSON with one term per line, so a changed coefficient is a one-line diff."""
    blocks = []
    for key, vec in sorted(vectors.items()):
        terms = ",\n".join(json.dumps(term, sort_keys=True) for term in vec["terms"])
        blocks.append(f'{json.dumps(key)}: {{"terms": [\n{terms}\n]}}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(_dump({_key(p, r): verma.subsingular(module(p, r), p, r).to_json()
                             for p, r in POINTS}))
    sys.exit(0)
