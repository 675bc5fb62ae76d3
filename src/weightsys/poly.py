"""Sparse integer polynomials in the single formal variable N."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, init=False, repr=False)
class IntPolynomial:
    """Immutable polynomial with arbitrary-precision integer coefficients.

    Stored as ``terms``, the (exponent, coefficient) pairs in descending
    exponent order with no zero coefficients, built once by ``__init__``;
    so two equal polynomials always compare and hash equal.  ``__init__``
    takes a dict or an iterable of pairs; duplicate exponents add up.
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, coeffs=None):
        clean: dict[int, int] = {}
        for exp, c in (coeffs.items() if hasattr(coeffs, "items")
                       else coeffs or ()):
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            clean[exp] = clean.get(exp, 0) + c
        object.__setattr__(self, "terms", tuple(sorted(
            ((e, c) for e, c in clean.items() if c), reverse=True)))

    def coefficient(self, exp: int) -> int:
        return next((c for e, c in self.terms if e == exp), 0)

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero
        polynomial (so degree bounds read as plain <=)."""
        return self.terms[0][0] if self.terms else -1

    def __call__(self, n):
        return sum(c * n ** e for e, c in self.terms)

    def __repr__(self):
        return f"IntPolynomial({dict(self.terms)!r})"

    def __str__(self):
        """Descending exponents with explicit signs, e.g. "2*N^3 - 2*N"."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "N" if mag == 1 else f"{mag}*N"
            else:
                body = f"N^{e}" if mag == 1 else f"{mag}*N^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with both sides as decimal strings
        (coefficients can outgrow fixed-width integer consumers)."""
        return {str(e): str(c) for e, c in self.terms}
