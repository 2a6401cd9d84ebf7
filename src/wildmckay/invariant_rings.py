"""Sparse multivariate polynomials over F_p and invariant-ring checks.

The quotient singularities handled by this package have invariant rings
with explicitly known generators in three low-dimensional families.  This
module proves the corresponding polynomial identities by brute expansion:
the Catalan-coefficient hypersurface equation for the 3-dimensional
indecomposable action at odd p, the hypersurface for the sum of two
2-dimensional summands at p = 2, and the Jacobian-determinant computation
in the reflection case.

Polynomials are dicts {packed monomial: nonzero coefficient mod p} over an
ordered variable tuple; residuals print in graded-lex order.  A monomial
x_0^e_0 x_1^e_1 ... packs into the int e_0 + e_1 2^B + e_2 2^(2B) + ...
(Monagan and Pearce, ACM CCA 44 (2010)), so a product of monomials is one
int addition, and sums and products run on motivic's kernel over Z.
"""

from __future__ import annotations

import math

from .gf import PreconditionError, TooLarge, binary_power, is_prime, require_prime
from .motivic import _add_terms, _mul_terms

# Work guard of verify_dim3_relation, whose work grows about as p^3: p = 31, 101
# and 151 take 0.005, 0.16 and 0.55 s in-process (fastest runs, shared 2-vCPU
# machine).  Set when p = 101 took 3 s and p = 127 took 8 s; larger p exits 2.
MAX_V3_PRIME = 101
# Work guards of reflection_jacobian_check: its work grows about as d^3 and
# barely with p, since x + y is raised to the p-th power by stretching keys:
# (x + y)^p = x^p + y^p.  At d = 2, p = 4099 takes under 1 ms; at p = 3,
# d = 300 takes 1.1 s and d near 1000 recurses too deep; p = 2477 with d = 400
# takes 3 s.  The largest accepted call, p = 997 with d = 100, takes 0.05 s.
MAX_REFLECTION_PRIME = 1000
MAX_REFLECTION_DIM = 100


# Bits per exponent field of a packed monomial.  Every term keeps its total
# degree below _MASK = 2^_B - 1, so no field carries into the next, and since
# 2^_B = 1 mod _MASK, key % _MASK is the total degree of the term.
_B = 32
_MASK = (1 << _B) - 1


def _pack(mono: tuple[int, ...]) -> int:
    key = 0
    for e in reversed(mono):
        key = key << _B | e
    return key


def _require_degree(degree: int, what: str) -> None:
    if degree >= _MASK:
        raise TooLarge(f"{what} of degree up to {degree} is at least 2^{_B} - 1, "
                       f"which packed monomials cannot hold")


class MultiPoly:
    """Sparse multivariate polynomial over F_p."""

    __slots__ = ("p", "vars", "terms", "_deg")

    def __init__(self, p: int, vars: tuple[str, ...], terms=None):
        """terms maps exponent tuples, one entry per variable, to integer
        coefficients; they are packed, reduced mod p and cleaned of zeros.
        ValueError unless every exponent and coefficient is an int."""
        self.p = p
        self.vars = tuple(vars)
        clean: dict[int, int] = {}
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if not {*map(type, mono), type(c)} <= {int}:
                raise ValueError(f"exponent vector {mono} or coefficient {c!r} is not of ints")
            if len(mono) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            if min(mono, default=0) < 0 or sum(mono) >= _MASK:
                raise PreconditionError(f"exponent vector {mono} is negative or of total degree at least 2^{_B} - 1")
            c %= p
            if c:
                clean[_pack(mono)] = c
        self.terms, self._deg = clean, None

    @classmethod
    def _of(cls, p: int, vars: tuple[str, ...], terms: dict, degree: int | None = None) -> "MultiPoly":
        """Wrap clean terms: coefficients reduced mod p and nonzero, packed keys
        of total degree below 2^_B - 1.  degree, if given, is the largest one."""
        poly = object.__new__(cls)
        poly.p, poly.vars, poly.terms, poly._deg = p, vars, terms, degree
        return poly

    @property
    def degree(self) -> int:
        """Total degree, 0 for zero.  Products and powers carry it (over F_p,
        deg fg = deg f + deg g); other results scan their terms when asked."""
        if self._deg is None:
            self._deg = max(map(_MASK.__rmod__, self.terms), default=0)
        return self._deg

    # -- constructors --

    @classmethod
    def constant(cls, p: int, vars, c: int) -> "MultiPoly":
        c %= p
        return cls._of(p, tuple(vars), {0: c} if c else {})

    @classmethod
    def variable(cls, p: int, vars, name: str) -> "MultiPoly":
        vars = tuple(vars)
        return cls._of(p, vars, {1 << _B * vars.index(name): 1})

    @classmethod
    def gens(cls, p: int, vars) -> list["MultiPoly"]:
        return [cls.variable(p, vars, v) for v in vars]

    # -- ring operations --

    def _check(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly.constant(self.p, self.vars, other)
        if not isinstance(other, MultiPoly) or other.p != self.p or other.vars != self.vars:
            raise ValueError("polynomials must share characteristic and variables")
        return other

    def __add__(self, other):
        other = self._check(other)
        p, out = self.p, _add_terms(self.terms, other.terms)
        return MultiPoly._of(p, self.vars, {m: r for m, c in out.items() if (r := c % p)})

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return MultiPoly._of(p, self.vars, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        _require_degree(degree := self.degree + other.degree, "product")
        p, out = self.p, _mul_terms(self.terms, other.terms)
        out = {m: r for m, c in out.items() if (r := c % p)}
        return MultiPoly._of(p, self.vars, out, degree if out else 0)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n from the base-p digits of n: over F_p, f^p has the terms
        {p k: c}, so each digit powers one stretched base, by
        gf.binary_power, and no product involves the constant 1."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        _require_degree(n * self.degree, "power")
        p, base, result = self.p, self, None
        while n:
            n, digit = divmod(n, p)
            if digit:
                power = binary_power(base, digit)
                result = power if result is None else result * power
            if n:
                base = MultiPoly._of(p, self.vars, {m * p: c for m, c in base.terms.items()}, base.degree * p)
        return MultiPoly.constant(p, self.vars, 1) if result is None else result

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.p, self.vars, other)
        return (
            isinstance(other, MultiPoly)
            and (self.p, self.vars) == (other.p, other.vars)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.vars, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- algebra maps --

    def substitute(self, images: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending each variable to its image (variables
        missing from the map must not occur).

        Monomials are visited in increasing key order, which is their
        exponent vector read from the last variable, and each variable
        keeps one running power: a rising exponent steps it up by the gap,
        a falling one rebuilds it, and so does a multiple of p, since
        image ** (k p) costs only image ** k."""
        if not images:
            raise ValueError("substitution requires at least one image")
        target = next(iter(images.values()))
        p = target.p
        out: dict[int, int] = {}
        powers: dict[str, tuple[int, MultiPoly]] = {}
        for mono in sorted(self.terms):
            term = None
            rest = mono
            for name in self.vars:
                if not rest:
                    break
                e = rest & _MASK
                rest >>= _B
                if e == 0:
                    continue
                if name not in images:
                    raise ValueError(f"no image provided for occurring variable {name}")
                have, power = powers.get(name, (0, None))
                if e != have:
                    k = e - have if have and e > have and e % p else e
                    step = images[name] if k == 1 else images[name] ** k
                    power = step if k == e else power * step
                    powers[name] = (e, power)
                term = power if term is None else term * power
            c = self.terms[mono]
            for m, t in (term.terms if term is not None else {0: 1}).items():
                out[m] = out.get(m, 0) + c * t
        return MultiPoly._of(p, target.vars, {m: r for m, c in out.items() if (r := c % p)})

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative."""
        shift = _B * self.vars.index(name)
        p, out = self.p, {}
        for m, c in self.terms.items():
            if s := c * (m >> shift & _MASK) % p:
                out[m - (1 << shift)] = s
        return MultiPoly._of(p, self.vars, out)

    # -- display (graded lex on the declared variable order) --

    def _sorted_terms(self):
        n = len(self.vars)
        monos = [(tuple(m >> _B * i & _MASK for i in range(n)), c) for m, c in self.terms.items()]
        return sorted(monos, key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self._sorted_terms():
            factors = [str(c)] if (c != 1 or not any(mono)) else []
            for name, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly(F{self.p}[{','.join(self.vars)}]: {self})"


def norm(f: MultiPoly, images: dict[str, MultiPoly]) -> MultiPoly:
    """prod_{k=0}^{p-1} sigma^k(f), p = f.p, for the order-p action sigma
    that substitutes images for the variables; always invariant."""
    result = g = f
    for _ in range(f.p - 1):
        g = g.substitute(images)
        result = result * g
    return result


def standard_action(p: int, dims) -> dict[str, MultiPoly]:
    """The images of the unipotent action on variables x_{lam,i}:
    sigma(x_{lam,i}) = x_{lam,i} + x_{lam,i+1}, last variable fixed."""
    names = tuple(f"x{lam + 1}_{i + 1}" for lam, d in enumerate(dims) for i in range(d))
    images = {}
    pos = 0
    for d in dims:
        for i in range(d):
            v = MultiPoly.variable(p, names, names[pos + i])
            if i + 1 < d:
                v = v + MultiPoly.variable(p, names, names[pos + i + 1])
            images[names[pos + i]] = v
        pos += d
    return images


def catalan_mod(i: int, p: int) -> int:
    """The i-th Catalan number binomial(2i, i)/(i+1), reduced mod p."""
    if i < 0:
        raise ValueError("Catalan index must be non-negative")
    return (math.comb(2 * i, i) // (i + 1)) % p


def dim3_action(p: int) -> tuple[dict[str, MultiPoly], MultiPoly, MultiPoly, MultiPoly]:
    """The 3-dimensional indecomposable action on k[x, y, z]:
    x -> x, y -> -x + y, z -> x - y + z; returns (images, x, y, z)."""
    x, y, z = MultiPoly.gens(p, ("x", "y", "z"))
    return {"x": x, "y": -x + y, "z": x - y + z}, x, y, z


def dim3_relation(p: int) -> MultiPoly:
    """The conjectured hypersurface equation in the generators X, Y, Z, W:

        2 X^p Z + W^p - Y^2 + sum_{i=2}^{(p+1)/2} (-1)^i C_{i-1} X^(2(p-i)) W^i

    with C the Catalan numbers mod p."""
    terms = {(p, 0, 1, 0): 2, (0, 0, 0, p): 1, (0, 2, 0, 0): -1}
    for i in range(2, (p + 1) // 2 + 1):
        terms[2 * (p - i), 0, 0, i] = (-1) ** i * catalan_mod(i - 1, p)
    return MultiPoly(p, ("X", "Y", "Z", "W"), terms)


def dim3_quadratic_invariant(p: int) -> MultiPoly:
    """The quadratic invariant y^2 - xy - 2xz of the 3-dimensional action
    (the unique one modulo x^2 and scalars); at p = 3 it reads
    y^2 + xz - xy."""
    _, x, y, z = dim3_action(p)
    return y * y - x * y - 2 * x * z


def verify_dim3_relation(p: int) -> dict:
    """Substitute the invariant generators x, N_y, N_z and the quadratic
    invariant into the hypersurface equation; test that it vanishes.
    p above MAX_V3_PRIME raises TooLarge."""
    if p < 3 or not is_prime(p):
        raise PreconditionError("an odd prime is required")
    if p > MAX_V3_PRIME:
        raise TooLarge(f"p = {p} is above the work guard of {MAX_V3_PRIME} for the v3 relation, "
                       f"whose work grows as p^3")
    images, x, y, z = dim3_action(p)
    w = dim3_quadratic_invariant(p)
    residual = dim3_relation(p).substitute({"X": x, "Y": norm(y, images), "Z": norm(z, images), "W": w})
    return {"ok": residual.is_zero(), "residual": residual}


def dim22_generators() -> tuple[dict[str, MultiPoly], dict[str, MultiPoly]]:
    """Invariant generators for the p = 2 action on two 2-dimensional
    summands.  The assignment of generators to the equation's variables is
    validated by verify_dim22_relation itself (invariance + vanishing).
    Returns (images of the action, generators)."""
    images = standard_action(2, (2, 2))
    x11, x12, x21, x22 = MultiPoly.gens(2, tuple(images))
    gens = {
        "V": x12,
        "W": x22,
        "X": norm(x11, images),
        "Y": norm(x21, images),
        "Z": x11 * x22 + x21 * x12,
    }
    return images, gens


def dim22_relation() -> MultiPoly:
    """The hypersurface equation W^2 X + V^2 Y + V W Z + Z^2 over F_2."""
    names = ("V", "W", "X", "Y", "Z")
    V, W, X, Y, Z = MultiPoly.gens(2, names)
    return W * W * X + V * V * Y + V * W * Z + Z * Z


def verify_dim22_relation(gens: dict | None = None) -> dict:
    """Check that each generator is invariant and that the hypersurface
    equation vanishes under the generator assignment."""
    images, default = dim22_generators()
    gens = default if gens is None else gens
    invariance_ok = all(g.substitute(images) == g for g in gens.values())
    residual = dim22_relation().substitute(gens)
    return {"ok": residual.is_zero(), "invariance_ok": invariance_ok, "residual": residual}


def reflection_jacobian_check(p: int, d: int) -> dict:
    """For the reflection action sigma(x) = x + y on k[x, y, z_1, ...]:
    check that x^p - x y^(p-1) is invariant and that the Jacobian
    determinant of the invariant generators equals +-y^(p-1).  p above
    MAX_REFLECTION_PRIME or d above MAX_REFLECTION_DIM raises TooLarge."""
    require_prime(p)
    if d < 2:
        raise PreconditionError("dimension must be at least 2")
    if p > MAX_REFLECTION_PRIME or d > MAX_REFLECTION_DIM:
        raise TooLarge(f"p = {p}, d = {d} is above the work guard of p <= {MAX_REFLECTION_PRIME}, "
                       f"d <= {MAX_REFLECTION_DIM} for the reflection check, whose work grows as d^3")
    names = ("x", "y") + tuple(f"z{i + 1}" for i in range(d - 2))
    gens = MultiPoly.gens(p, names)
    x, y = gens[0], gens[1]
    u = x ** p - x * y ** (p - 1)
    invariance_ok = u.substitute({"x": x + y, "y": y}) == u  # u is in x and y alone
    det = jacobian_determinant([u, y] + gens[2:], names)
    target = y ** (p - 1)
    det_ok = det == target or det == -target
    return {"invariance_ok": invariance_ok, "det_ok": det_ok, "determinant": det}


def jacobian_determinant(generators: list[MultiPoly], variables) -> MultiPoly:
    """Determinant of the matrix of formal partials d(gen_i)/d(var_j)."""
    variables = tuple(variables)
    if len(generators) != len(variables):
        raise ValueError("need as many generators as variables")
    rows = [[g.derivative(v) for v in variables] for g in generators]
    return _determinant(rows, generators[0].p, variables)


def _determinant(rows: list[list[MultiPoly]], p: int, names) -> MultiPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = MultiPoly(p, tuple(names))
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in rows[1:]]
        cof = entry * _determinant(minor, p, names)
        total = total + cof if col % 2 == 0 else total - cof
    return total
