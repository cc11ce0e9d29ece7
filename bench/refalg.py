"""Reference Verma-module arithmetic over Fractions, for output checks.

This module shares no code with the package under test.  It rebuilds the
two algebras from their defining brackets and straightens words into
PBW normal form by plain commutation, at numeric weights only.  The
checks use it to confirm that a vector printed by the program is
singular, or singular modulo J' = U(g) u', after substituting numbers
for the symbolic parameters.

A generator is a pair (family, mode); families are "L", "W", "I" and the
central elements "C", "CL", "CI", "CLI".  A basis word is a tuple of
lowering generators in normal order: the second family (W or I) first,
then L, each with the most negative mode first, matching the printed
form W(-3)W(-1)L(-2)L(-1).v.
"""

from __future__ import annotations

from fractions import Fraction

W22 = "w22"
HV = "hv"
_CENTRAL = ("C", "CL", "CI", "CLI")
_ZERO_MODE = {
    W22: {"C": "c", "L": "h", "W": "hW"},
    HV: {"CL": "cL", "CI": "cI", "CLI": "cLI", "L": "h", "I": "hI"},
}


def _order(g):
    return (1 if g[0] == "L" else 0, g[1])


def bracket(kind: str, a, b) -> list:
    """[a, b] as a list of (generator, Fraction) pairs."""
    fa, n = a
    fb, m = b
    if fa in _CENTRAL or fb in _CENTRAL:
        return []
    if fa != "L" and fb == "L":
        return [(g, -c) for g, c in bracket(kind, b, a)]
    cocycle = Fraction(n ** 3 - n, 12) if n + m == 0 else Fraction(0)
    out = []
    if kind == W22:
        if fa == "W":  # both W
            return []
        # [L_n, L_m] and [L_n, W_m] share the same shape and central term
        if n != m:
            out.append(((fb, n + m), Fraction(n - m)))
        if cocycle:
            out.append((("C", 0), cocycle))
        return out
    if fa == "I":  # both I: [I_n, I_m] = n delta C_I
        return [(("CI", 0), Fraction(n))] if n + m == 0 and n else []
    if fb == "L":
        if n != m:
            out.append((("L", n + m), Fraction(n - m)))
        if cocycle:
            out.append((("CL", 0), cocycle))
        return out
    # [L_n, I_m] = -m I_{n+m} - delta (n^2 + n) C_LI
    if m:
        out.append((("I", n + m), Fraction(-m)))
    if n + m == 0 and n * n + n:
        out.append((("CLI", 0), Fraction(-(n * n + n))))
    return out


class RefModule:
    """Verma module at numeric weights with a memoized straightening."""

    def __init__(self, kind: str, weights: dict):
        self.kind = kind
        self.weights = {k: Fraction(v) for k, v in weights.items()}
        self._memo: dict = {}
        second = "W" if kind == W22 else "I"
        self.raising = [("L", 1), ("L", 2), (second, 1), (second, 2)]
        self.second = second

    def _eigen(self, g) -> Fraction:
        return self.weights[_ZERO_MODE[self.kind][g[0]]]

    def apply_word(self, g, word: tuple) -> dict:
        """g . (word . v) in normal form, as {word: Fraction}."""
        key = (g, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        fam, n = g
        if fam in _CENTRAL:
            ev = self._eigen(g)
            out = {word: ev} if ev else {}
        elif not word:
            if n > 0:
                out = {}
            elif n == 0:
                ev = self._eigen(g)
                out = {(): ev} if ev else {}
            else:
                out = {(g,): Fraction(1)}
        elif n < 0 and _order(g) <= _order(word[0]):
            out = {(g,) + word: Fraction(1)}
        else:
            first, rest = word[0], word[1:]
            out = {}
            for w2, c2 in self.apply_word(g, rest).items():
                for w3, c3 in self.apply_word(first, w2).items():
                    out[w3] = out.get(w3, 0) + c2 * c3
            for b, cb in bracket(self.kind, g, first):
                for w3, c3 in self.apply_word(b, rest).items():
                    out[w3] = out.get(w3, 0) + cb * c3
            out = {w: c for w, c in out.items() if c}
        self._memo[key] = out
        return out

    def act(self, g, vec: dict) -> dict:
        out: dict = {}
        for word, c in vec.items():
            for w2, c2 in self.apply_word(g, word).items():
                out[w2] = out.get(w2, 0) + c * c2
        return {w: c for w, c in out.items() if c}

    def word_of(self, w: tuple, l: tuple) -> tuple:
        """Basis word of the monomial printed as second-family modes w, L modes l."""
        gens = [(self.second, -m) for m in w] + [("L", -m) for m in l]
        return tuple(sorted(gens, key=_order))

    def apply_word_to(self, word: tuple, vec: dict) -> dict:
        for g in reversed(word):
            vec = self.act(g, vec)
        return vec

    def is_singular(self, vec: dict) -> bool:
        return all(not self.act(g, vec) for g in self.raising)


def partitions(n: int, largest: int | None = None) -> list:
    """Partitions of n as descending tuples."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for k in range(min(n, largest), 0, -1):
        out.extend((k,) + rest for rest in partitions(n - k, k))
    return out


def pair_count(n: int) -> int:
    """Number of pairs of partitions with sizes adding to n."""
    return sum(len(partitions(i)) * len(partitions(n - i)) for i in range(n + 1))


def level_words(M: RefModule, level: int) -> list:
    return [M.word_of(w, l) for i in range(level + 1)
            for w in partitions(i) for l in partitions(level - i)]


class _Span:
    """Row-echelon span of sparse Fraction vectors."""

    def __init__(self, key=None):
        self.rows: dict = {}  # pivot column -> row with 1 there, 0 at other pivots
        self.key = key

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        for piv, row in self.rows.items():
            c = vec.get(piv)
            if c:
                for k, v in row.items():
                    s = vec.get(k, 0) - c * v
                    if s:
                        vec[k] = s
                    else:
                        vec.pop(k, None)
        return vec

    def add(self, vec: dict) -> None:
        vec = self.reduce(vec)
        if not vec:
            return
        piv = min(vec, key=self.key)
        inv = 1 / vec[piv]
        row = {k: v * inv for k, v in vec.items()}
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                for k, v in row.items():
                    s = other.get(k, 0) - c * v
                    if s:
                        other[k] = s
                    else:
                        other.pop(k, None)
        self.rows[piv] = row


def pure_singular(M: RefModule, p: int) -> dict | None:
    """The singular vector at level p built from second-family modes only,
    with coefficient 1 on the single mode of level p, or None."""
    monos = [M.word_of(w, ()) for w in partitions(p)]
    head = M.word_of((p,), ())
    # unknown x_j for each monomial; rows: coefficient of each image word
    rows: dict = {}
    for j, word in enumerate(monos):
        for g in M.raising:
            for w2, c in M.apply_word(g, word).items():
                rows.setdefault((g, w2), {})[j] = c
    span = _Span(key=lambda j: -j)  # head (index 0) is the last pivot choice
    for r in rows.values():
        span.add(r)
    free = [j for j in range(len(monos)) if j not in span.rows]
    if len(free) != 1 or monos[free[0]] != head:
        return None
    f = free[0]
    vec = {monos[f]: Fraction(1)}
    for piv, row in span.rows.items():
        if row.get(f):
            vec[monos[piv]] = -row[f]
    return vec


def singular_mod_jprime(M: RefModule, p: int, u: dict) -> bool:
    """Whether g.u lies in J' = U(g) u' for every raising generator."""
    uprime = pure_singular(M, p)
    if uprime is None:
        return False
    level = sum(-g[1] for g in next(iter(u)))
    for g in M.raising:
        image = M.act(g, u)
        if not image:
            continue
        span = _Span()
        for word in level_words(M, level - g[1] - p):
            span.add(M.apply_word_to(word, uprime))
        if span.reduce(image):
            return False
    return True
