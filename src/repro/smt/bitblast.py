"""Tseitin bit-blasting of bit-vector/Boolean terms to CNF.

Every bit-vector term is mapped to a list of CNF literals, least significant
bit first; every Boolean term is mapped to a single literal.  The blaster
memoises on term identity so shared sub-DAGs are only encoded once.
"""

from __future__ import annotations

from typing import Dict, List

from repro.metrics import COUNTERS, declare
from repro.smt.cnf import CnfBuilder
from repro.smt.terms import Term

# Encoding-memo counters, summed over every blaster in the process.  A hit
# means a term's CNF encoding was reused instead of re-blasted: a subterm
# shared within one query, or across the checks of one long-lived solver
# (test generation's), because hash-consing makes identical subterms the
# same key.
declare("solver_bitblast_hits", "solver_bitblast_misses")


class BitBlaster:
    """Translate terms to CNF using a shared :class:`CnfBuilder`."""

    def __init__(self) -> None:
        self.builder = CnfBuilder()
        self._bool_cache: Dict[Term, int] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._symbol_bits: Dict[str, List[int]] = {}
        self._bool_symbols: Dict[str, int] = {}

    # -- public API --------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Assert a Boolean term as a top-level constraint."""

        if not term.sort.is_bool():
            raise TypeError("only Boolean terms can be asserted")
        self.builder.assert_literal(self.bool_literal(term))

    def bool_literal(self, term: Term) -> int:
        """Return the CNF literal representing a Boolean term."""

        cached = self._bool_cache.get(term)
        if cached is not None:
            COUNTERS["solver_bitblast_hits"] += 1
            return cached
        COUNTERS["solver_bitblast_misses"] += 1
        literal = self._encode_bool(term)
        self._bool_cache[term] = literal
        return literal

    def bv_bits(self, term: Term) -> List[int]:
        """Return the CNF literals (LSB first) representing a bit-vector term."""

        cached = self._bv_cache.get(term)
        if cached is not None:
            COUNTERS["solver_bitblast_hits"] += 1
            return cached
        COUNTERS["solver_bitblast_misses"] += 1
        bits = self._encode_bv(term)
        self._bv_cache[term] = bits
        return bits

    def symbol_bits(self) -> Dict[str, List[int]]:
        """Mapping of bit-vector symbol name -> CNF variables (LSB first)."""

        return dict(self._symbol_bits)

    def bool_symbol_vars(self) -> Dict[str, int]:
        """Mapping of Boolean symbol name -> CNF variable."""

        return dict(self._bool_symbols)

    # -- Boolean encoding -------------------------------------------------------

    def _encode_bool(self, term: Term) -> int:
        builder = self.builder
        op = term.op
        if op == "boolconst":
            return builder.const(bool(term.value))
        if op == "boolsym":
            literal = self._bool_symbols.get(term.name)
            if literal is None:
                literal = builder.new_var()
                self._bool_symbols[term.name] = literal
            return literal
        if op == "not":
            return -self.bool_literal(term.children[0])
        if op == "and":
            return builder.encode_and([self.bool_literal(child) for child in term.children])
        if op == "or":
            return builder.encode_or([self.bool_literal(child) for child in term.children])
        if op == "ite":
            cond, then, orelse = term.children
            return builder.encode_ite(
                self.bool_literal(cond),
                self.bool_literal(then),
                self.bool_literal(orelse),
            )
        if op == "eq":
            left, right = term.children
            if left.sort.is_bool():
                return builder.encode_iff(self.bool_literal(left), self.bool_literal(right))
            left_bits = self.bv_bits(left)
            right_bits = self.bv_bits(right)
            bit_eqs = [
                builder.encode_iff(a, b) for a, b in zip(left_bits, right_bits)
            ]
            return builder.encode_and(bit_eqs)
        if op in ("bvult", "bvule"):
            left_bits = self.bv_bits(term.children[0])
            right_bits = self.bv_bits(term.children[1])
            less = self._encode_less_than(left_bits, right_bits)
            if op == "bvult":
                return less
            bit_eqs = [builder.encode_iff(a, b) for a, b in zip(left_bits, right_bits)]
            equal = builder.encode_and(bit_eqs)
            return builder.encode_or([less, equal])
        raise ValueError(f"cannot bit-blast Boolean operator {op!r}")

    def _encode_less_than(self, left: List[int], right: List[int]) -> int:
        """Unsigned comparison, MSB-first ripple encoding."""

        builder = self.builder
        result = builder.const(False)
        # Walk from least to most significant: at each bit,
        # less = (~a & b) | ((a <-> b) & less_so_far)
        for a, b in zip(left, right):
            a_lt_b = builder.encode_and([-a, b])
            a_eq_b = builder.encode_iff(a, b)
            carry = builder.encode_and([a_eq_b, result])
            result = builder.encode_or([a_lt_b, carry])
        return result

    # -- bit-vector encoding ------------------------------------------------------

    def _encode_bv(self, term: Term) -> List[int]:
        builder = self.builder
        op = term.op
        width = term.width
        if op == "bvconst":
            value = term.value
            return [builder.const(bool((value >> index) & 1)) for index in range(width)]
        if op == "bvsym":
            bits = self._symbol_bits.get(term.name)
            if bits is None:
                bits = builder.new_vars(width)
                self._symbol_bits[term.name] = bits
            return bits
        if op in ("bvand", "bvor", "bvxor"):
            left = self.bv_bits(term.children[0])
            right = self.bv_bits(term.children[1])
            if op == "bvand":
                return [builder.encode_and([a, b]) for a, b in zip(left, right)]
            if op == "bvor":
                return [builder.encode_or([a, b]) for a, b in zip(left, right)]
            return [builder.encode_xor(a, b) for a, b in zip(left, right)]
        if op == "bvnot":
            return [-bit for bit in self.bv_bits(term.children[0])]
        if op == "bvadd":
            return self._encode_add(
                self.bv_bits(term.children[0]), self.bv_bits(term.children[1])
            )
        if op == "bvsub":
            # a - b == a + ~b + 1
            left = self.bv_bits(term.children[0])
            right = [-bit for bit in self.bv_bits(term.children[1])]
            return self._encode_add(left, right, carry_in=builder.const(True))
        if op == "bvmul":
            return self._encode_mul(
                self.bv_bits(term.children[0]), self.bv_bits(term.children[1])
            )
        if op in ("bvudiv", "bvurem"):
            return self._encode_divrem(term)
        if op == "bvshl":
            return self._encode_shift(term, left_shift=True)
        if op == "bvlshr":
            return self._encode_shift(term, left_shift=False)
        if op == "concat":
            bits: List[int] = []
            # Children are MSB first; bit lists are LSB first.
            for child in reversed(term.children):
                bits.extend(self.bv_bits(child))
            return bits
        if op == "extract":
            high, low = term.payload  # type: ignore[misc]
            return self.bv_bits(term.children[0])[low : high + 1]
        if op == "zero_ext":
            extra = term.payload  # type: ignore[assignment]
            return self.bv_bits(term.children[0]) + [builder.const(False)] * extra
        if op == "ite":
            cond = self.bool_literal(term.children[0])
            then = self.bv_bits(term.children[1])
            orelse = self.bv_bits(term.children[2])
            return [builder.encode_ite(cond, a, b) for a, b in zip(then, orelse)]
        raise ValueError(f"cannot bit-blast bit-vector operator {op!r}")

    def _encode_add(
        self, left: List[int], right: List[int], carry_in: int | None = None
    ) -> List[int]:
        builder = self.builder
        carry = carry_in if carry_in is not None else builder.const(False)
        out: List[int] = []
        for a, b in zip(left, right):
            total, carry = builder.encode_full_adder(a, b, carry)
            out.append(total)
        return out

    def _encode_mul(self, left: List[int], right: List[int]) -> List[int]:
        builder = self.builder
        width = len(left)
        accumulator = [builder.const(False)] * width
        for shift, multiplier_bit in enumerate(right):
            partial = [builder.const(False)] * shift
            for index in range(width - shift):
                partial.append(builder.encode_and([left[index], multiplier_bit]))
            accumulator = self._encode_add(accumulator, partial)
        return accumulator

    def _encode_shift(self, term: Term, left_shift: bool) -> List[int]:
        builder = self.builder
        value_bits = self.bv_bits(term.children[0])
        amount_bits = self.bv_bits(term.children[1])
        width = len(value_bits)
        # Barrel shifter over the bits of the shift amount.
        current = list(value_bits)
        for stage, amount_bit in enumerate(amount_bits):
            shift = 1 << stage
            if shift >= width:
                # Shifting by >= width zeroes the result when this bit is set.
                zero = builder.const(False)
                current = [
                    builder.encode_ite(amount_bit, zero, bit) for bit in current
                ]
                continue
            shifted: List[int] = []
            for index in range(width):
                if left_shift:
                    source = index - shift
                else:
                    source = index + shift
                if 0 <= source < width:
                    shifted.append(current[source])
                else:
                    shifted.append(builder.const(False))
            current = [
                builder.encode_ite(amount_bit, shifted[index], current[index])
                for index in range(width)
            ]
        return current

    def _encode_divrem(self, term: Term) -> List[int]:
        """Encode unsigned division/remainder via the multiplication relation.

        We introduce fresh quotient and remainder bits and assert
        ``dividend == divisor * quotient + remainder`` with
        ``remainder < divisor`` when the divisor is non-zero, and the
        SMT-LIB convention (``udiv x 0 = all-ones``, ``urem x 0 = x``) when
        it is zero.
        """

        builder = self.builder
        dividend = self.bv_bits(term.children[0])
        divisor = self.bv_bits(term.children[1])
        width = len(dividend)
        quotient = builder.new_vars(width)
        remainder = builder.new_vars(width)

        divisor_zero = builder.encode_and([-bit for bit in divisor])

        # product = divisor * quotient (low bits), overflow must be zero for
        # the relation to be exact; we additionally require the high part of
        # the 2*width multiplication to be zero.
        wide_divisor = divisor + [builder.const(False)] * width
        wide_quotient = quotient + [builder.const(False)] * width
        wide_product = self._encode_mul(wide_divisor, wide_quotient)
        wide_remainder = remainder + [builder.const(False)] * width
        wide_sum = self._encode_add(wide_product, wide_remainder)
        # Relation clauses apply only when the divisor is non-zero.
        for index in range(width):
            iff = builder.encode_iff(wide_sum[index], dividend[index])
            builder.add_clause([divisor_zero, iff])
        for index in range(width, 2 * width):
            builder.add_clause([divisor_zero, -wide_sum[index]])
        remainder_lt = self._encode_less_than(remainder, divisor)
        builder.add_clause([divisor_zero, remainder_lt])

        # Division by zero: quotient = all ones, remainder = dividend.
        for bit in quotient:
            builder.add_clause([-divisor_zero, bit])
        for rem_bit, div_bit in zip(remainder, dividend):
            builder.add_clause([-divisor_zero, builder.encode_iff(rem_bit, div_bit)])

        return quotient if term.op == "bvudiv" else remainder
