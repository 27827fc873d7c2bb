"""A pure-Python stand-in for the two gmpy2 types koszulkit reads.

It is off the default import path: a test run uses it only with this
directory first on PYTHONPATH, where `koszulkit.fields` then takes
`mpq` as its rationals, as it would with gmpy2 installed.  `mpz` is an
int whose arithmetic results stay `mpz`, and `mpq` a
`fractions.Fraction` whose numerator and denominator are `mpz` and whose
arithmetic results stay `mpq`.  So the value types of a gmpy2 run, ints
that are `mpz` where they meet a rational's parts and plain `int`
elsewhere, go through the same code paths; only the speed differs.
"""

from fractions import Fraction

__all__ = ["mpq", "mpz"]


class mpz(int):
    __slots__ = ()

    __str__ = int.__repr__

    def __repr__(self):
        return "mpz(%d)" % self


def _stays_mpz(name):
    op = getattr(int, name)

    def method(self, *args):
        out = op(self, *args)
        if type(out) is int:
            return mpz(out)
        if type(out) is tuple:  # divmod
            return tuple(mpz(x) for x in out)
        return out

    method.__name__ = name
    return method


for _name in ("__abs__", "__add__", "__and__", "__divmod__", "__floordiv__", "__lshift__",
              "__mod__", "__mul__", "__neg__", "__or__", "__pos__", "__pow__", "__radd__",
              "__rand__", "__rdivmod__", "__rfloordiv__", "__rlshift__", "__rmod__",
              "__rmul__", "__ror__", "__rpow__", "__rrshift__", "__rshift__", "__rsub__",
              "__rxor__", "__sub__", "__xor__"):
    setattr(mpz, _name, _stays_mpz(_name))


class mpq(Fraction):
    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        self._numerator = mpz(self._numerator)
        self._denominator = mpz(self._denominator)
        return self

    def __repr__(self):
        return "mpq(%d,%d)" % (self._numerator, self._denominator)


def _stays_mpq(name):
    op = getattr(Fraction, name)

    def method(self, *args):
        out = op(self, *args)
        if isinstance(out, Fraction):
            return mpq(out)
        if type(out) is int:
            return mpz(out)
        return out

    method.__name__ = name
    return method


for _name in ("__abs__", "__add__", "__floordiv__", "__mod__", "__mul__", "__neg__",
              "__pos__", "__pow__", "__radd__", "__rfloordiv__", "__rmod__", "__rmul__",
              "__rpow__", "__rsub__", "__rtruediv__", "__sub__", "__truediv__"):
    setattr(mpq, _name, _stays_mpq(_name))
