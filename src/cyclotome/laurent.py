"""Exact scalars: half-integers, integer Laurent polynomials with half-integer
exponents, and formal sums.

HalfInt stores twice its value.  HalfLaurent stores its terms sparsely as
{twice_exponent: coefficient}; the bar involution negates every exponent.
FormalSum carries finitely many basis labels with HalfLaurent coefficients and
is the currency of the relation verifier.  This module imports nothing else
from the package, so every other layer can build on it.
"""

from __future__ import annotations


class HalfInt:
    """An element of (1/2)Z stored as twice its value; exact arithmetic only.

    Only ints and HalfInts convert; an integer-valued HalfInt equals and hashes
    like the int it is.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"HalfInt takes twice its value as an int, got {twice!r}")
        self.twice = int(twice)

    @classmethod
    def of(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        raise TypeError(f"cannot convert {value!r} to HalfInt")

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other: int):
        if isinstance(other, HalfInt):
            if other.twice % 2:
                raise ValueError("product would leave (1/2)Z")
            other = other.twice // 2
        return HalfInt(self.twice * other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (HalfInt, int)):
            return NotImplemented
        return self.twice == HalfInt.of(other).twice

    def __lt__(self, other):
        return self.twice < HalfInt.of(other).twice

    def __le__(self, other):
        return self.twice <= HalfInt.of(other).twice

    def __gt__(self, other):
        return self.twice > HalfInt.of(other).twice

    def __ge__(self, other):
        return self.twice >= HalfInt.of(other).twice

    def __hash__(self):
        if self.twice % 2 == 0:
            return hash(self.twice // 2)
        return hash(("HalfInt", self.twice))

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


class HalfLaurent:
    """Z-linear combination of t^(k/2); canonical form drops zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        # keys are TWICE the exponent
        self.terms = {k: int(c) for k, c in sorted((terms or {}).items()) if c}

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def from_int(cls, c: int) -> "HalfLaurent":
        return cls({0: c})

    @classmethod
    def t_pow(cls, exponent) -> "HalfLaurent":
        """t^exponent for an int or HalfInt exponent."""
        return cls({HalfInt.of(exponent).twice: 1})

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return HalfLaurent(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return HalfLaurent({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return HalfLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Powers; a negative power exists only for a unit +-t^k."""
        base = self
        if n < 0:
            if len(self.terms) != 1 or abs(next(iter(self.terms.values()))) != 1:
                raise ValueError(f"{self!r} is not a unit +-t^k, so it has no inverse")
            ((k, c),) = self.terms.items()
            base, n = HalfLaurent({-k: c}), -n
        out = HalfLaurent.from_int(1)
        for _ in range(n):
            out = out * base
        return out

    def bar(self) -> "HalfLaurent":
        """The bar involution t^(1/2) -> t^(-1/2)."""
        return HalfLaurent({-k: c for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            # a constant hashes like the int it equals
            return hash(self.terms.get(0, 0))
        return hash(tuple(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        pieces = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                pieces.append(f"{c:+d}")
                continue
            exp = str(k // 2) if k % 2 == 0 else f"{k}/2"
            if c == 1:
                pieces.append(f"+t^{exp}")
            elif c == -1:
                pieces.append(f"-t^{exp}")
            else:
                pieces.append(f"{c:+d}*t^{exp}")
        text = "".join(pieces)
        return text[1:] if text.startswith("+") else text


def _coerce(x) -> HalfLaurent:
    if isinstance(x, HalfLaurent):
        return x
    if isinstance(x, int):
        return HalfLaurent.from_int(x)
    raise TypeError(f"cannot coerce {x!r} to HalfLaurent")


T = HalfLaurent.t_pow(1)
T_INV = HalfLaurent.t_pow(-1)
T_HALF = HalfLaurent({1: 1})


def quantum_int(n: int) -> HalfLaurent:
    """[n]_t = (t^n - t^-n)/(t - t^-1) = t^(n-1) + t^(n-3) + ... + t^(1-n)."""
    if n < 0:
        return -quantum_int(-n)
    return HalfLaurent({2 * k: 1 for k in range(n - 1, -n - 1, -2)})


def quantum_factorial(n: int) -> HalfLaurent:
    out = HalfLaurent.from_int(1)
    for k in range(1, n + 1):
        out = out * quantum_int(k)
    return out


class FormalSum:
    """Finitely supported map from hashable basis labels to HalfLaurent scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        for key, coeff in (terms or {}).items():
            coeff = _coerce(coeff)
            if not coeff.is_zero():
                out[key] = coeff
        self.terms = out

    @classmethod
    def of(cls, key, coeff=1) -> "FormalSum":
        return cls({key: _coerce(coeff)})

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, HalfLaurent.zero()) + coeff
        return FormalSum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum({k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "FormalSum":
        scalar = _coerce(scalar)
        return FormalSum({k: c * scalar for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> HalfLaurent:
        return self.terms.get(key, HalfLaurent.zero())

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        return " + ".join(f"({coeff})*[{key}]" for key, coeff in items)
