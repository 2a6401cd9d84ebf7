"""Sparse multivariate polynomials over F_p and invariant-ring checks.

The quotient singularities handled by this package have invariant rings
with explicitly known generators in three low-dimensional families.  This
module proves the corresponding polynomial identities by brute expansion:
the Catalan-coefficient hypersurface equation for the 3-dimensional
indecomposable action at odd p, the hypersurface for the sum of two
2-dimensional summands at p = 2, and the Jacobian-determinant computation
in the reflection case.

Polynomials are dicts {exponent vector: nonzero coefficient mod p} over an
ordered variable tuple; residuals print in graded-lex order.
"""

from __future__ import annotations

import math
from operator import add

from .gf import PreconditionError, binary_power, is_prime, require_prime

# Work guard of verify_dim3_relation: its work grows about as p^4, from
# 0.06 s at p = 31 to 3 s at p = 101 and 8 s at p = 127 (in-process, on a
# shared 2-vCPU machine), so larger p exits 2 instead of running for minutes.
MAX_V3_PRIME = 101
# Work guards of reflection_jacobian_check: its work grows about as
# p^2 (1 + d/11) + d^3.  At d = 2, p = 4099 takes 6 s; at p = 3, d = 300 takes
# 1.3 s and d near 1000 recurses too deep; p = 2477 with d = 400 takes 72 s.
# The largest accepted call, p = 997 with d = 100, takes 3.1 s, about as long
# as verify_dim3_relation at p = 101 (2.2-2.8 s on the same machine).
MAX_REFLECTION_PRIME = 1000
MAX_REFLECTION_DIM = 100


class RelationTooLarge(PreconditionError):
    """An input exceeds the work guard of its relation check: MAX_V3_PRIME,
    MAX_REFLECTION_PRIME or MAX_REFLECTION_DIM."""


class MultiPoly:
    """Sparse multivariate polynomial over F_p."""

    __slots__ = ("p", "vars", "terms")

    def __init__(self, p: int, vars: tuple[str, ...], terms=None):
        self.p = p
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], int] = {}
        for mono, c in (terms or {}).items():
            c = int(c) % p
            if c == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            clean[mono] = c
        self.terms = clean

    @classmethod
    def _of(cls, p: int, vars: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Wrap terms that are already clean: coefficients reduced mod p and
        nonzero, exponent tuples of the right length."""
        poly = object.__new__(cls)
        poly.p, poly.vars, poly.terms = p, vars, terms
        return poly

    # -- constructors --

    @classmethod
    def constant(cls, p: int, vars, c: int) -> "MultiPoly":
        return cls(p, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, p: int, vars, name: str) -> "MultiPoly":
        vars = tuple(vars)
        mono = [0] * len(vars)
        mono[vars.index(name)] = 1
        return cls(p, vars, {tuple(mono): 1})

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
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % self.p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly._of(self.p, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.p, self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = (out.get(m, 0) + c1 * c2) % self.p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly._of(self.p, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return binary_power(self, n, MultiPoly.constant(self.p, self.vars, 1))

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

        Monomials are visited sorted by their exponent vector read from the
        last variable, and each variable keeps one running power: a rising
        exponent steps it up by the gap, a falling one rebuilds it."""
        if not images:
            raise ValueError("substitution requires at least one image")
        target = next(iter(images.values()))
        result = MultiPoly._of(target.p, target.vars, {})
        powers: dict[str, tuple[int, MultiPoly]] = {}
        for mono in sorted(self.terms, key=lambda m: m[::-1]):
            term = MultiPoly.constant(target.p, target.vars, self.terms[mono])
            for name, e in zip(self.vars, mono):
                if e == 0:
                    continue
                if name not in images:
                    raise ValueError(f"no image provided for occurring variable {name}")
                have, power = powers.get(name, (0, None))
                if have and e > have:
                    power = power * images[name] ** (e - have)
                elif e != have:
                    power = images[name] ** e
                powers[name] = (e, power)
                term = term * power
            result = result + term
        return result

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative."""
        idx = self.vars.index(name)
        out: dict[tuple[int, ...], int] = {}
        for mono, c in self.terms.items():
            e = mono[idx]
            if e == 0:
                continue
            m = list(mono)
            m[idx] = e - 1
            m = tuple(m)
            s = (out.get(m, 0) + c * e) % self.p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly._of(self.p, self.vars, out)

    # -- display (graded lex on the declared variable order) --

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

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


class GroupAction:
    """An order-p substitution action given by linear images of variables."""

    __slots__ = ("p", "vars", "images")

    def __init__(self, p: int, vars: tuple[str, ...], images: dict[str, MultiPoly]):
        self.p = p
        self.vars = vars
        self.images = images

    def apply(self, f: MultiPoly, k: int = 1) -> MultiPoly:
        """sigma^k applied to f by iterated substitution, 0 <= k < p."""
        if not 0 <= k < self.p:
            raise ValueError(f"power {k} out of range [0, {self.p})")
        for _ in range(k):
            f = f.substitute(self.images)
        return f

    def norm(self, f: MultiPoly) -> MultiPoly:
        """prod_{k=0}^{p-1} sigma^k(f); always invariant."""
        result = MultiPoly.constant(self.p, self.vars, 1)
        g = f
        for _ in range(self.p):
            result = result * g
            g = g.substitute(self.images)
        return result


def standard_action(p: int, dims) -> GroupAction:
    """The unipotent action on variables x_{lam,i}:
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
    return GroupAction(p, names, images)


def catalan_mod(i: int, p: int) -> int:
    """The i-th Catalan number binomial(2i, i)/(i+1), reduced mod p."""
    if i < 0:
        raise ValueError("Catalan index must be non-negative")
    return (math.comb(2 * i, i) // (i + 1)) % p


def dim3_action(p: int) -> tuple[GroupAction, MultiPoly, MultiPoly, MultiPoly]:
    """The 3-dimensional indecomposable action on k[x, y, z]:
    x -> x, y -> -x + y, z -> x - y + z; returns (action, x, y, z)."""
    names = ("x", "y", "z")
    x, y, z = MultiPoly.gens(p, names)
    act = GroupAction(p, names, {"x": x, "y": -x + y, "z": x - y + z})
    return act, x, y, z


def dim3_relation(p: int) -> MultiPoly:
    """The conjectured hypersurface equation in the generators X, Y, Z, W:

        2 X^p Z + W^p - Y^2 + sum_{i=2}^{(p+1)/2} (-1)^i C_{i-1} X^(2(p-i)) W^i

    with C the Catalan numbers mod p."""
    names = ("X", "Y", "Z", "W")
    X, Y, Z, W = MultiPoly.gens(p, names)
    rel = 2 * X ** p * Z + W ** p - Y * Y
    for i in range(2, (p + 1) // 2 + 1):
        sign = 1 if i % 2 == 0 else -1
        rel = rel + sign * catalan_mod(i - 1, p) * X ** (2 * (p - i)) * W ** i
    return rel


def dim3_quadratic_invariant(p: int) -> MultiPoly:
    """The quadratic invariant y^2 - xy - 2xz of the 3-dimensional action
    (the unique one modulo x^2 and scalars); at p = 3 it reads
    y^2 + xz - xy."""
    _, x, y, z = dim3_action(p)
    return y * y - x * y - 2 * x * z


def verify_dim3_relation(p: int) -> dict:
    """Substitute the invariant generators x, N_y, N_z and the quadratic
    invariant into the hypersurface equation; test that it vanishes.
    p above MAX_V3_PRIME raises RelationTooLarge."""
    if p < 3 or not is_prime(p):
        raise PreconditionError("an odd prime is required")
    if p > MAX_V3_PRIME:
        raise RelationTooLarge(f"p = {p} is above the work guard of {MAX_V3_PRIME} for the v3 relation, "
                               f"whose work grows as p^4")
    act, x, y, z = dim3_action(p)
    n_y = act.norm(y)
    n_z = act.norm(z)
    w = dim3_quadratic_invariant(p)
    residual = dim3_relation(p).substitute({"X": x, "Y": n_y, "Z": n_z, "W": w})
    return {"ok": residual.is_zero(), "residual": residual}


def dim22_generators() -> tuple[GroupAction, dict[str, MultiPoly]]:
    """Invariant generators for the p = 2 action on two 2-dimensional
    summands.  The assignment of generators to the equation's variables is
    validated by verify_dim22_relation itself (invariance + vanishing)."""
    act = standard_action(2, (2, 2))
    x11, x12, x21, x22 = MultiPoly.gens(2, act.vars)
    gens = {
        "V": x12,
        "W": x22,
        "X": act.norm(x11),
        "Y": act.norm(x21),
        "Z": x11 * x22 + x21 * x12,
    }
    return act, gens


def dim22_relation() -> MultiPoly:
    """The hypersurface equation W^2 X + V^2 Y + V W Z + Z^2 over F_2."""
    names = ("V", "W", "X", "Y", "Z")
    V, W, X, Y, Z = MultiPoly.gens(2, names)
    return W * W * X + V * V * Y + V * W * Z + Z * Z


def verify_dim22_relation(gens: dict | None = None) -> dict:
    """Check that each generator is invariant and that the hypersurface
    equation vanishes under the generator assignment."""
    act, default = dim22_generators()
    gens = default if gens is None else gens
    invariance_ok = all(act.apply(g) == g for g in gens.values())
    residual = dim22_relation().substitute(gens)
    return {"ok": residual.is_zero(), "invariance_ok": invariance_ok, "residual": residual}


def reflection_jacobian_check(p: int, d: int) -> dict:
    """For the reflection action sigma(x) = x + y on k[x, y, z_1, ...]:
    check that x^p - x y^(p-1) is invariant and that the Jacobian
    determinant of the invariant generators equals +-y^(p-1).  p above
    MAX_REFLECTION_PRIME or d above MAX_REFLECTION_DIM raises
    RelationTooLarge."""
    require_prime(p)
    if d < 2:
        raise PreconditionError("dimension must be at least 2")
    if p > MAX_REFLECTION_PRIME or d > MAX_REFLECTION_DIM:
        raise RelationTooLarge(f"p = {p}, d = {d} is above the work guard of p <= {MAX_REFLECTION_PRIME}, "
                               f"d <= {MAX_REFLECTION_DIM} for the reflection check, whose work grows as p^2 d + d^3")
    names = ("x", "y") + tuple(f"z{i + 1}" for i in range(d - 2))
    gens = MultiPoly.gens(p, names)
    x, y = gens[0], gens[1]
    images = {"x": x + y}
    for name, g in zip(names[1:], gens[1:]):
        images[name] = g
    act = GroupAction(p, names, images)
    u = x ** p - x * y ** (p - 1)
    invariance_ok = act.apply(u) == u
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
